//go:build amd64

#include "textflag.h"

// func syncRegionAVX2(cur, nxt unsafe.Pointer, strideBytes, n, rows uintptr) uintptr
//
// Eight cells per iteration of the five-point sandpile stencil over
// rows×n cells — the YMM widening of syncRegionSSE2 (same register
// roles, same branch-free unchanged-count):
//
//	v = center&3 + left>>2 + right>>2 + up>>2 + down>>2   (per lane)
//
// The outer loop walks the rows, advancing both pointers by one
// stride; the inner loop walks n cells of a row. The left/right taps
// are unaligned loads one cell off the center pointer; the caller
// guarantees every 32-byte window of every row stays inside the
// halo'd grid. VPCMPEQD yields -1 per unchanged lane and VPSUBD
// accumulates those into Y6 across all rows; one horizontal sum folds
// the eight lanes at the end. VZEROUPPER before returning keeps the
// SSE2 kernel (which may run next for the remainder) off the
// AVX-to-SSE transition penalty.
TEXT ·syncRegionAVX2(SB), NOSPLIT, $0-48
	MOVQ cur+0(FP), SI
	MOVQ nxt+8(FP), DI
	MOVQ strideBytes+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ rows+32(FP), BX

	VPCMPEQD Y7, Y7, Y7
	VPSRLD   $30, Y7, Y7  // Y7 = 0x00000003 in every lane
	VPXOR    Y6, Y6, Y6   // unchanged-lane accumulator
	SHLQ     $2, CX       // cell count -> byte count

row:
	TESTQ BX, BX
	JZ    done
	MOVQ  SI, R12
	SUBQ  DX, R12         // up row
	LEAQ  (SI)(DX*1), R13 // down row
	XORQ  R9, R9          // byte offset within the row

col:
	CMPQ R9, CX
	JGE  nextrow
	VMOVDQU (SI)(R9*1), Y0   // center
	VMOVDQU -4(SI)(R9*1), Y1 // left
	VMOVDQU 4(SI)(R9*1), Y2  // right
	VMOVDQU (R12)(R9*1), Y3  // up
	VMOVDQU (R13)(R9*1), Y4  // down
	VPSRLD  $2, Y1, Y1
	VPSRLD  $2, Y2, Y2
	VPSRLD  $2, Y3, Y3
	VPSRLD  $2, Y4, Y4
	VPAND   Y7, Y0, Y5       // center % 4
	VPADDD  Y1, Y5, Y5
	VPADDD  Y2, Y5, Y5
	VPADDD  Y3, Y5, Y5
	VPADDD  Y4, Y5, Y5
	VMOVDQU Y5, (DI)(R9*1)
	VPCMPEQD Y0, Y5, Y5      // -1 per unchanged lane
	VPSUBD  Y5, Y6, Y6       // accumulate +1 per unchanged lane
	ADDQ    $32, R9
	JMP     col

nextrow:
	ADDQ DX, SI
	ADDQ DX, DI
	DECQ BX
	JMP  row

done:
	// Horizontal sum of Y6's eight lanes.
	VEXTRACTI128 $1, Y6, X0
	VPADDD  X0, X6, X6    // fold high 128 into low
	VPSHUFD $0x4E, X6, X0 // swap 64-bit halves
	VPADDD  X0, X6, X6
	VPSHUFD $0xB1, X6, X0 // swap adjacent dwords
	VPADDD  X0, X6, X6
	VMOVD   X6, AX        // low lane, zero-extended
	VZEROUPPER
	MOVQ    AX, ret+40(FP)
	RET

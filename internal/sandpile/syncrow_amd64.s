//go:build amd64

#include "textflag.h"

// func syncRegionSSE2(cur, nxt unsafe.Pointer, strideBytes, n, rows uintptr) uintptr
//
// Four cells per iteration of the five-point sandpile stencil over
// rows×n cells:
//
//	v = center&3 + left>>2 + right>>2 + up>>2 + down>>2   (per lane)
//
// The outer loop walks the rows, advancing both pointers by one
// stride; the inner loop walks n cells of a row. The left/right taps
// are unaligned loads one cell off the center pointer; the caller
// guarantees every 16-byte window of every row stays inside the
// halo'd grid. Unchanged cells are counted branch-free: PCMPEQL
// yields -1 per equal lane and PSUBL accumulates those into X6 across
// all rows, so each lane of X6 ends up holding the count of unchanged
// cells at its position mod 4; one horizontal add at the end folds
// them together.
TEXT ·syncRegionSSE2(SB), NOSPLIT, $0-48
	MOVQ cur+0(FP), SI
	MOVQ nxt+8(FP), DI
	MOVQ strideBytes+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ rows+32(FP), BX

	PCMPEQL X7, X7
	PSRLL   $30, X7       // X7 = 0x00000003 in every lane
	PXOR    X6, X6        // unchanged-lane accumulator
	SHLQ    $2, CX        // cell count -> byte count

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
	MOVOU (SI)(R9*1), X0  // center
	MOVOU -4(SI)(R9*1), X1 // left
	MOVOU 4(SI)(R9*1), X2 // right
	MOVOU (R12)(R9*1), X3 // up
	MOVOU (R13)(R9*1), X4 // down
	PSRLL $2, X1
	PSRLL $2, X2
	PSRLL $2, X3
	PSRLL $2, X4
	MOVO  X0, X5
	PAND  X7, X5          // center % 4
	PADDL X1, X5
	PADDL X2, X5
	PADDL X3, X5
	PADDL X4, X5
	MOVOU X5, (DI)(R9*1)
	PCMPEQL X0, X5        // -1 per unchanged lane
	PSUBL X5, X6          // accumulate +1 per unchanged lane
	ADDQ  $16, R9
	JMP   col

nextrow:
	ADDQ DX, SI
	ADDQ DX, DI
	DECQ BX
	JMP  row

done:
	// Horizontal sum of X6's four lanes into every lane.
	PSHUFD $0x4E, X6, X0  // swap 64-bit halves
	PADDL  X0, X6
	PSHUFD $0xB1, X6, X0  // swap adjacent dwords
	PADDL  X0, X6
	MOVQ   X6, AX
	MOVL   AX, AX         // low lane only, zero-extended
	MOVQ   AX, ret+40(FP)
	RET

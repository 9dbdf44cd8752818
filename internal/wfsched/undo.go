package wfsched

// undo.go holds the helpers the LP states share for des's undo log. A
// handler saves each field or slice element before it writes it,
// naming it by an undo slot: the field's kind in the low bits and the
// element's index above them. Values travel as uint64: int32s
// zero-extended, float64s as their bits.

import (
	"math"

	"repro/internal/des"
)

// slotKindBits is the width of an undo slot's kind field, and
// maxSlotIndex the largest element index a slot can name.
const (
	slotKindBits = 5
	maxSlotIndex = 1<<(31-slotKindBits) - 1
)

func undoSlot(kind, i int) int32 { return int32(i)<<slotKindBits | int32(kind) }

func splitSlot(slot int32) (kind, i int) {
	return int(slot & (1<<slotKindBits - 1)), int(slot >> slotKindBits)
}

func saveI32(p *des.Proc, kind, i int, old int32) {
	p.Save(undoSlot(kind, i), uint64(uint32(old)))
}

func saveF64(p *des.Proc, kind, i int, old float64) {
	p.Save(undoSlot(kind, i), math.Float64bits(old))
}

// saveLen saves the length of a slice that only grows by append
// between rollbacks: no live element is ever overwritten, so undoing
// the append is cutting the slice back to n.
func saveLen(p *des.Proc, kind, n int) { p.Save(undoSlot(kind, 0), uint64(n)) }

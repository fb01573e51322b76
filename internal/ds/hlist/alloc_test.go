package hlist

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/core"
)

// TestHPBRCUZeroAllocs pins the allocation-free steady state of the
// HP-BRCU walks: cursors, checkpoint copies and the walk state live on
// the traversal's stack, and the protectors are concrete types, so an
// operation performs no heap allocation of its own. (Amortised batch and
// slot refills stay below one per operation, which AllocsPerRun's
// integer average reports as zero.)
func TestHPBRCUZeroAllocs(t *testing.T) {
	l := NewHPBRCU(core.Config{})
	h := l.Register()
	defer h.Unregister()
	const n = 1024
	for k := int64(0); k < n; k += 2 {
		h.Insert(k, k)
	}
	next := int64(1)
	odd := func() int64 { k := next; next = (next + 2) % n; return k }
	ops := []struct {
		name string
		f    func()
	}{
		{"GetOptimistic", func() { h.GetOptimistic(odd() - 1) }},
		{"Get", func() { h.Get(odd() - 1) }},
		{"Insert", func() { h.Insert(odd(), 1) }},
		{"Remove", func() { h.Remove(odd()) }},
	}
	for _, op := range ops {
		next = 1
		if a := testing.AllocsPerRun(n/2-1, op.f); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", op.name, a)
		}
	}
}

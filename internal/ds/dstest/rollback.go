// Package dstest holds test drivers shared by the data-structure
// packages.
package dstest

import (
	"math/rand"
	"testing"

	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Handle is the per-thread accessor every structure's handle provides.
type Handle interface {
	Get(key int64) (int64, bool)
	Insert(key, val int64) bool
	Remove(key int64) (int64, bool)
	Barrier()
	Unregister()
}

// Structure is an HP-BRCU structure under test.
type Structure struct {
	Register func() Handle
	Keys     func() []int64 // single-threaded key listing
	Stats    *stats.Reclamation
}

// RollbackEquivalence drives s through its structure-owned traversal
// loops under forced rollbacks and checks every result against a
// sequential model. SiteStepRollback self-neutralizes about one
// traversal step in three; SiteCheckpointRollback self-neutralizes
// between a checkpoint's Protect and its commit poll — the §4.3
// double-buffer window, where only the previous complete checkpoint can
// be resumed from. Cooldowns longer than a checkpoint distance of 4 keep
// every walk live. A handle with GetOptimistic has it checked too. The
// books must balance at the end.
func RollbackEquivalence(t *testing.T, s Structure) {
	t.Helper()
	h := s.Register()
	opt, hasOpt := h.(interface {
		GetOptimistic(key int64) (int64, bool)
	})
	nops := 3
	if hasOpt {
		nops = 4
	}

	var plans [fault.NumSites]fault.Plan
	plans[fault.SiteStepRollback] = fault.Plan{Period: 3, Cooldown: 8}
	plans[fault.SiteCheckpointRollback] = fault.Plan{Period: 2, Cooldown: 2}
	inj := fault.New(fault.Config{Seed: 13, Plans: plans})
	fault.Activate(inj)
	defer fault.Deactivate()

	model := make(map[int64]int64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		k := rng.Int63n(96)
		want, had := model[k]
		switch rng.Intn(nops) {
		case 0:
			v := int64(i)
			if got := h.Insert(k, v); got == had {
				t.Fatalf("op %d: Insert(%d) = %v, model has key: %v", i, k, got, had)
			}
			if !had {
				model[k] = v
			}
		case 1:
			if got, ok := h.Remove(k); ok != had || ok && got != want {
				t.Fatalf("op %d: Remove(%d) = (%d,%v), want (%d,%v)", i, k, got, ok, want, had)
			}
			delete(model, k)
		case 2:
			if got, ok := h.Get(k); ok != had || ok && got != want {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i, k, got, ok, want, had)
			}
		case 3:
			if got, ok := opt.GetOptimistic(k); ok != had || ok && got != want {
				t.Fatalf("op %d: GetOptimistic(%d) = (%d,%v), want (%d,%v)", i, k, got, ok, want, had)
			}
		}
	}
	fault.Deactivate()

	if inj.Fired(fault.SiteStepRollback) == 0 || inj.Fired(fault.SiteCheckpointRollback) == 0 {
		t.Fatalf("vacuous: step fires %d, checkpoint fires %d",
			inj.Fired(fault.SiteStepRollback), inj.Fired(fault.SiteCheckpointRollback))
	}
	if s.Stats.Snapshot().Rollbacks == 0 {
		t.Fatal("no rollbacks recorded")
	}
	if got, want := len(s.Keys()), len(model); got != want {
		t.Fatalf("structure holds %d keys, model %d", got, want)
	}

	h.Unregister()
	d := s.Register()
	for i := 0; i < 8; i++ {
		d.Barrier()
	}
	d.Unregister()
	if st := s.Stats.Snapshot(); st.Retired == 0 || st.Unreclaimed != 0 {
		t.Fatalf("books: retired=%d unreclaimed=%d", st.Retired, st.Unreclaimed)
	}
}

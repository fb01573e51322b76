package hlist

// Regression tests for cooperative cancellation on the expedited list:
// a context cancelled mid-traversal must self-neutralize the caller's
// critical section, roll the cursor back to its last validated
// checkpoint, and leave the handle immediately reusable. The checkpoint
// regression pins down the §4.3 invariant under cancellation — at the
// moment the abort lands, one protector buffer still holds a complete
// protected cursor, so the follow-up operations see no recycled memory.

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/fault"
)

func cancelTestConfig() core.Config {
	// Short checkpoint distance so the neutralization lands within a few
	// held steps of the cancel.
	return core.Config{BackupPeriod: 8, MaxLocalTasks: 8, ScanThreshold: 8}
}

func TestGetCtxAlreadyCancelled(t *testing.T) {
	l := NewHPBRCU(cancelTestConfig())
	h := l.Register()
	defer h.Unregister()
	h.Insert(1, 42)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := h.GetCtx(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("GetCtx(cancelled ctx) err = %v, want context.Canceled", err)
	}
	// The pre-flight rejection must not have entered a critical section:
	// the handle works immediately and nothing was accounted as an
	// in-flight cancellation rollback.
	if v, ok := h.Get(1); !ok || v != 42 {
		t.Fatalf("Get(1) after rejected GetCtx = (%d,%v), want (42,true)", v, ok)
	}
}

func TestTraverseCtxCancelMidTraversalRollsBack(t *testing.T) {
	l := NewHPBRCU(cancelTestConfig())
	h := l.Register()

	const n = 4000
	for k := int64(n - 1); k >= 0; k-- { // descending: each insert is at the head
		if !h.Insert(k, k*31+7) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}

	// Drive the optimistic read walk with fault injection: every poll
	// yields (a stall that lets the helper below run), and once the walk
	// is 50 polls in, every step and checkpoint self-neutralizes, so the
	// walk holds position — rolling back to its last checkpoint over and
	// over — until the cancel lands. The hold guarantees the cancel
	// arrives mid-traversal, not between operations. A helper descheduled
	// for the whole walk lets it finish first; that attempt is retried.
	var err error
	polls := uint64(0)
	for attempt := 0; attempt < 3; attempt++ {
		var plans [fault.NumSites]fault.Plan
		plans[fault.SitePoll] = fault.Plan{Period: 1, StallYields: 2}
		plans[fault.SiteStepRollback] = fault.Plan{Period: 1}
		inj := fault.New(fault.Config{Seed: 1, Plans: plans})
		inj.SetSiteEnabled(fault.SiteStepRollback, false)
		fault.Activate(inj)

		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan struct{})
		helped := make(chan uint64)
		go func() {
			close(ready)
			for inj.Arrivals(fault.SitePoll) < 50 {
				runtime.Gosched()
			}
			inj.SetSiteEnabled(fault.SiteStepRollback, true)
			p := inj.Arrivals(fault.SitePoll)
			cancel()
			helped <- p
		}()
		<-ready
		_, _, err = h.GetCtx(ctx, n-1)
		polls = <-helped
		fault.Deactivate()
		cancel()
		if err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("GetCtx err = %v, want context.Canceled", err)
	}
	if polls < 50 || polls >= n {
		t.Fatalf("cancel issued after %d polls, want a mid-traversal cancel", polls)
	}
	if l.Stats().Snapshot().Rollbacks == 0 {
		t.Fatal("the cancelled walk did not roll back")
	}

	// The rollback must have returned the handle to quiescent with its
	// checkpoint intact: every immediate follow-up works, on this handle,
	// with no re-registration.
	if v, found := h.Get(42); !found || v != 42*31+7 {
		t.Fatalf("Get(42) after cancellation = (%d,%v), want (%d,true)", v, found, int64(42*31+7))
	}
	if v, found, err := h.GetCtx(context.Background(), 150); err != nil || !found || v != 150*31+7 {
		t.Fatalf("GetCtx(150) after cancellation = (%d,%v,%v), want (%d,true,nil)", v, found, err, int64(150*31+7))
	}
	if !h.Insert(n, n*31+7) {
		t.Fatal("Insert after cancellation failed")
	}

	if got := l.Stats().Snapshot().CancelledOps; got != 1 {
		t.Fatalf("CancelledOps = %d, want 1", got)
	}

	h.Barrier()
	h.Unregister()
}

func TestBarrierCtxCancelled(t *testing.T) {
	l := NewHPBRCU(cancelTestConfig())
	h := l.Register()
	for k := int64(0); k < 32; k++ {
		h.Insert(k, k)
		h.Remove(k)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.BarrierCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BarrierCtx(cancelled) = %v, want context.Canceled", err)
	}
	// A cancelled barrier leaves draining unfinished but consistent; a
	// plain barrier afterwards finishes the job.
	if err := h.BarrierCtx(context.Background()); err != nil {
		t.Fatalf("BarrierCtx(background) = %v", err)
	}
	// The op handle's shields still protect its last cursor; release them
	// and finish through a fresh handle so the books can balance.
	h.Unregister()
	d := l.Register()
	d.Barrier()
	d.Unregister()
	if left := l.Stats().Snapshot().Unreclaimed; left != 0 {
		t.Fatalf("unreclaimed = %d after full drain", left)
	}
}

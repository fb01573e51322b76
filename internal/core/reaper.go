package core

// The lease reaper's view of a composed HP-BRCU domain: core.Handle
// implements reap.Victim on top of the BRCU status-word protocol, and
// reapTarget implements reap.Target over the domain's member registry.
// See internal/reap for the protocol and DESIGN.md §9 for the argument.

import (
	"sync"
	"time"

	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/reap"
)

func brcuHalves(hs []*Handle) []*brcu.Handle {
	out := make([]*brcu.Handle, len(hs))
	for i, h := range hs {
		out[i] = h.brcu
	}
	return out
}

func hpHalves(hs []*Handle) []*hp.Handle {
	out := make([]*hp.Handle, len(hs))
	for i, h := range hs {
		out[i] = h.HP
	}
	return out
}

// ReaperConfig configures StartReaper. Zero values select the reap
// package defaults.
type ReaperConfig struct {
	// LeaseTimeout is how stale a handle's lease must be before the
	// reaper quarantines it.
	LeaseTimeout time.Duration
	// Interval between reaper ticks.
	Interval time.Duration
	// Grace is the quarantine confirmation delay.
	Grace time.Duration
}

// Reaper is a running lease reaper on a BRCU-backed domain; see
// StartReaper.
type Reaper struct {
	r    *reap.Reaper
	h    *Handle
	once sync.Once
}

// StartReaper enables lease stamping on the domain and launches the
// per-domain reaper goroutine. It must run before any worker goroutine
// registers (the lease gate is a plain bool, fault.On contract) and
// returns nil for an RCU-backed domain. Stop the reaper with Stop before
// tearing the domain down.
func (d *Domain) StartReaper(cfg ReaperConfig) *Reaper {
	if d.brcu == nil {
		return nil
	}
	d.brcu.EnableLeases()
	// The reaper drains adopted garbage through its own exempt handle.
	h := d.register(true)
	r := reap.Start(&reapTarget{d: d, h: h}, reap.Config{
		LeaseTimeout: cfg.LeaseTimeout,
		Interval:     cfg.Interval,
		Grace:        cfg.Grace,
		Rec:          d.rec,
		BP:           d.bp,
		ShardID:      d.shardID,
	})
	return &Reaper{r: r, h: h}
}

// Ticks returns the number of completed reaper passes; the shard health
// monitor reads it as the reaper-liveness probe.
func (r *Reaper) Ticks() int64 { return r.r.Ticks() }

// Stop terminates the reaper and releases its handle. Idempotent and
// safe to call concurrently (Once.Do blocks losers until the winner has
// finished the teardown).
func (r *Reaper) Stop() {
	r.once.Do(func() {
		r.r.Stop()
		r.h.Unregister()
	})
}

// --- reap.Victim on *Handle -------------------------------------------

// Lease returns the BRCU half's activity stamp; the HP half's retired
// list is mutated only on paths that re-stamp it (Retire, Barrier,
// emergencyDrain), so one lease covers both halves.
func (h *Handle) Lease() int64 { return h.brcu.Lease() }

// Exempt reports whether the lease reaper must skip this handle.
func (h *Handle) Exempt() bool { return h.exempt }

// TryQuarantine forwards phase one of the reap protocol.
func (h *Handle) TryQuarantine() bool { return h.brcu.TryQuarantine() }

// TryBeginReap forwards phase two of the reap protocol.
func (h *Handle) TryBeginReap() bool { return h.brcu.TryBeginReap() }

// Adopt moves both halves of the dead thread's state into the
// domain-global paths: the BRCU defer batch into the global task set and
// the HP retired list (plus shield protections) into the orphans. It
// returns the number of adopted nodes.
func (h *Handle) Adopt() int {
	return h.brcu.AdoptBatch() + h.d.HP.Adopt(h.HP)
}

// FinishReap publishes the end of adoption.
func (h *Handle) FinishReap() { h.brcu.FinishReap() }

// CancelReap aborts a confirmed reap without adopting anything.
func (h *Handle) CancelReap() { h.brcu.CancelReap() }

// Empty reports whether a reap of this handle would adopt nothing: both
// halves hold no deferred or retired node and no shield protects. Called
// only while the Reaping phase excludes the owner.
func (h *Handle) Empty() bool { return h.brcu.BatchEmpty() && h.HP.Empty() }

// --- reap.Target over the domain --------------------------------------

type reapTarget struct {
	d *Domain
	h *Handle // the reaper's own drain handle
}

func (t *reapTarget) PublishClock(now int64) { t.d.brcu.PublishClock(now) }

func (t *reapTarget) Victims() []reap.Victim {
	snap := t.d.members.Snapshot()
	vs := make([]reap.Victim, len(snap))
	for i, h := range snap {
		vs[i] = h
	}
	return vs
}

// Remove strips the victims from all three registries (members, BRCU,
// HP). The reaper calls it while every victim is still in the Reaping
// phase — before FinishReap — so no owner can resurrect concurrently and
// have its fresh registration removed out from under it.
func (t *reapTarget) Remove(vs []reap.Victim) {
	hs := make([]*Handle, len(vs))
	for i, v := range vs {
		hs[i] = v.(*Handle)
	}
	set := make(map[*Handle]bool, len(hs))
	for _, h := range hs {
		set[h] = true
	}
	t.d.members.RemoveWhere(func(h *Handle) bool { return set[h] })
	t.d.brcu.RemoveAll(brcuHalves(hs))
	t.d.HP.RemoveAll(hpHalves(hs))
}

// Tidy rescans the reaper's own retired list while it holds nodes an
// earlier drain found protected; see reap.Target.
func (t *reapTarget) Tidy() {
	if t.h.HP.PendingRetired() > 0 {
		t.h.HP.Reclaim()
	}
}

func (t *reapTarget) PostReap() {
	// Drain what the adoption moved into the global paths: force epoch
	// advances so the adopted defer batch expires, then scan shields so
	// the adopted orphans free.
	t.h.Barrier()
}

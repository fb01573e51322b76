// Package reap implements the lease-based orphan reaper and the tiered
// memory-backpressure ladder (DESIGN.md §9).
//
// The reclamation schemes in this repository are robust against *stalled*
// threads — a preempted reader cannot block reclamation — but a thread
// that dies (its goroutine leaks or panics past its defers) abandons a
// registered handle: its deferred batch never flushes, its shields never
// clear, and the garbage they pin accumulates forever. The reaper closes
// that hole with a lease protocol:
//
//   - the reaper publishes a coarse activity clock into the domain once
//     per tick (Target.PublishClock); handle owners copy it into their
//     lease word with one relaxed store at every activity point;
//   - a handle whose lease has not moved for LeaseTimeout while it holds
//     no live critical section is *quarantined* (phase one: a CAS on the
//     handle's status word that a live owner detects and cancels at its
//     next entry point);
//   - a quarantine that survives the Grace period is *confirmed* (phase
//     two: CAS Quarantined→Reaping), the handle's deferred batch and
//     retired list are adopted into the domain-global reclamation paths,
//     its shields are cleared, and it is removed from the registry —
//     strictly in that order, with FinishReap published only after the
//     registry removal (see below);
//   - a confirmed victim with nothing to adopt (empty batch and retired
//     list, no set shield) is not reaped at all: the reap is cancelled
//     (Reaping→Out) and the victim parked until its lease moves, so a
//     registered-but-idle handle is never churned through reap/resurrect
//     cycles (its only cost, if truly dead, is a registry slot).
//
// Safety: the owner's transitions out of a reapable state are CASes on
// the status word (enter a critical section, claim the mutating InMut
// phase around batch mutation, cancel a quarantine), so the reaper and
// the owner serialize through that one word — a reap can never overlap
// an owner-side mutation of the adopted state, and the Reaping phase
// excludes a waking owner for the reap's whole span. The lease is purely
// the liveness heuristic that decides when to try.
//
// A slow-but-alive owner that wakes after the full reap finds its handle
// in the Reaped phase and resurrects: it re-registers and continues, its
// old garbage already safely adopted. The reaper publishes Reaped only
// after the victim has left every registry, so a resurrection — which
// re-registers — can never be undone by the reap's own removal.
package reap

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Defaults. The lease timeout is deliberately long relative to the tick:
// a lease is considered stale only after many missed publications, so a
// briefly descheduled owner is never quarantined in the first place.
const (
	DefaultLeaseTimeout = 250 * time.Millisecond
	DefaultInterval     = 5 * time.Millisecond
)

// Victim is one reapable handle, as seen by the reaper. internal/core's
// composed Handle implements it; the indirection keeps this package free
// of scheme imports (and mockable in tests).
type Victim interface {
	// Lease returns the victim's last activity stamp (UnixNano).
	Lease() int64
	// Exempt reports whether the handle must never be reaped (service
	// handles owned by the watchdog and the reaper itself).
	Exempt() bool
	// TryQuarantine begins phase one; false means the victim is inside a
	// live critical section, mid-mutation, or already mid-reap.
	TryQuarantine() bool
	// TryBeginReap confirms phase two; false means the owner woke up and
	// cancelled the quarantine.
	TryBeginReap() bool
	// Empty reports whether a reap would adopt nothing (empty batch and
	// retired list, no set shield). Called only between TryBeginReap and
	// FinishReap/CancelReap, where the owner is excluded.
	Empty() bool
	// CancelReap aborts a confirmed reap without adopting: the victim
	// stays registered and its owner, if alive, continues untouched.
	CancelReap()
	// Adopt moves the victim's deferred batch and retired list into the
	// domain-global paths and clears its protections, returning the
	// number of adopted nodes. Called only between TryBeginReap and
	// FinishReap.
	Adopt() int
	// FinishReap publishes the end of the reap. The reaper calls it only
	// after Target.Remove, so a resurrecting owner can never be stripped
	// from the registries while live.
	FinishReap()
}

// Target is the domain the reaper serves.
type Target interface {
	// PublishClock publishes now (UnixNano) as the domain activity clock.
	PublishClock(now int64)
	// Victims snapshots the current membership.
	Victims() []Victim
	// Remove bulk-removes victims mid-reap from the domain registries.
	// Called between TryBeginReap and FinishReap, while every victim is
	// still in the Reaping phase and its owner therefore excluded.
	Remove(vs []Victim)
	// PostReap runs after a pass that reaped at least one victim — the
	// hook where internal/core forces a flush-and-reclaim round so the
	// adopted garbage actually drains.
	PostReap()
	// Tidy runs at the end of every pass. A drain can leave nodes on the
	// reaper's own handle that a live shield still protected at the
	// time; once the workers are gone nothing else would scan that
	// handle's retired list again, so internal/core rescans it here —
	// a shield scan, with no epoch forcing.
	Tidy()
}

// Config configures Start.
type Config struct {
	// LeaseTimeout is how stale a lease must be before quarantine
	// (default DefaultLeaseTimeout).
	LeaseTimeout time.Duration
	// Interval between reaper ticks (default DefaultInterval).
	Interval time.Duration
	// Grace is the quarantine confirmation delay (default 4×Interval).
	Grace time.Duration
	// Rec receives ReapedHandles/AdoptedNodes counts (nil allocates a
	// private one).
	Rec *stats.Reclamation
	// BP, when non-nil, is refreshed once per tick so its cached
	// thresholds track the observed thread count, and its throttle and
	// reject counters are mirrored into the event trace.
	BP *Backpressure
	// ShardID labels this reaper's domain shard for shard-targeted fault
	// injection (fault.SiteShardStall) and diagnostics. Single-domain
	// deployments leave it 0.
	ShardID int
}

// quarantine is one pending phase-one entry: when it started and the
// exact lease value observed, so a reap aborts if the lease moved.
type quarantine struct {
	at    int64
	lease int64
	// empty marks a victim whose confirmed reap found nothing to adopt:
	// the reap was cancelled and the victim parked until its lease moves,
	// instead of cycling it through quarantine→confirm→cancel each grace
	// period.
	empty bool
}

// Reaper is a running per-domain reaper goroutine; see Start.
type Reaper struct {
	tgt Target
	cfg Config

	quarantined map[Victim]quarantine
	// cleanup is set after any adoption: adopted garbage can land in
	// places no worker will ever drain again (the global task set, HP
	// orphans, the drain handle's own retired batch — e.g. nodes a
	// still-live shield protected at adoption time), so the reaper keeps
	// running PostReap each tick — but only while the rounds make
	// progress. cleanupLast is the Unreclaimed level after the previous
	// round; a round that fails to lower it ends cleanup mode (with live
	// workers retiring, the gauge may never touch zero, and an unbounded
	// forced-advance loop would collapse their throughput — what the
	// drains can't reach, the workers or the watchdog's quiet-but-dirty
	// sweep will).
	cleanup     bool
	cleanupLast int64
	trace       *obs.Trace
	// last* remember the counter levels already mirrored into the trace.
	lastThrottles int64
	lastRejects   int64

	// ticks counts completed reaper passes; the shard health monitor
	// reads it as the reaper-liveness signal (a frozen counter across
	// probe windows means the janitor goroutine is wedged or dead).
	ticks atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Start launches the reaper goroutine. Stop it with Stop before tearing
// the domain down. The caller must have enabled lease stamping on the
// domain before any worker goroutine registers (internal/core does both
// in StartReaper).
func Start(tgt Target, cfg Config) *Reaper {
	r := newReaper(tgt, cfg)
	r.wg.Add(1)
	go r.run()
	return r
}

// newReaper applies defaults without launching the goroutine; tick-driven
// tests use it directly.
func newReaper(tgt Target, cfg Config) *Reaper {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 4 * cfg.Interval
	}
	if cfg.Rec == nil {
		cfg.Rec = &stats.Reclamation{}
	}
	r := &Reaper{
		tgt:         tgt,
		cfg:         cfg,
		quarantined: make(map[Victim]quarantine),
		stop:        make(chan struct{}),
	}
	if obs.On {
		r.trace = obs.NewTrace("reap")
	}
	return r
}

// Stop terminates the reaper and waits for it to exit. Idempotent and
// safe to call concurrently; every caller returns only after the
// goroutine has exited.
func (r *Reaper) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *Reaper) run() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		// The shard-wedge injection point: a fired stall skips this pass
		// entirely — no clock published, no adoption, no tick counted — so
		// a Period-1 plan freezes the reaper as dead as a wedged goroutine,
		// deterministically: leases age, adoption stops, and the shard's
		// health verdict sees a dead janitor. FireShard reads the injector
		// through the atomic gate — this goroutine outlives
		// Activate/Deactivate.
		if fault.FireShard(fault.SiteShardStall, r.cfg.ShardID) {
			continue
		}
		r.tick(time.Now().UnixNano())
	}
}

// tick is one reaper pass; factored out of run with an explicit clock so
// tests can drive the protocol deterministically.
func (r *Reaper) tick(now int64) {
	defer r.ticks.Add(1)
	defer r.tgt.Tidy()
	r.tgt.PublishClock(now)
	vs := r.tgt.Victims()

	live := make(map[Victim]bool, len(vs))
	var reaping []Victim
	for _, v := range vs {
		live[v] = true
		if v.Exempt() {
			continue
		}
		if q, ok := r.quarantined[v]; ok {
			lease := v.Lease()
			if lease != q.lease {
				// The owner moved: alive after all (its next entry
				// point cancels the quarantine CAS itself).
				delete(r.quarantined, v)
				continue
			}
			if q.empty {
				// Parked: a previous confirm found nothing to adopt.
				// Nothing can appear while the lease is frozen (growing
				// the batch or retired list is an activity point), so
				// skip without touching the victim at all.
				continue
			}
			if now-q.at < int64(r.cfg.Grace) {
				continue
			}
			delete(r.quarantined, v)
			if !v.TryBeginReap() {
				continue // owner won the quarantine CAS
			}
			// Owner excluded from here to FinishReap/CancelReap.
			if v.Empty() {
				// Nothing to adopt: cancel instead of churning a merely
				// idle handle through reap/resurrect (which would clear
				// nothing but still invalidate its traversal
				// checkpoints), and park it until its lease moves. A
				// truly dead empty handle costs only its registry slot.
				v.CancelReap()
				r.quarantined[v] = quarantine{at: now, lease: lease, empty: true}
				continue
			}
			reaping = append(reaping, v)
			continue
		}
		lease := v.Lease()
		if age := now - lease; age > int64(r.cfg.LeaseTimeout) {
			if obs.On {
				r.trace.Rec(obs.EvLeaseExpire, age)
			}
			if v.TryQuarantine() {
				r.quarantined[v] = quarantine{at: now, lease: lease}
				if obs.On {
					r.trace.Rec(obs.EvQuarantine, 0)
				}
			}
		}
	}
	// Drop quarantine entries for victims that left the registry (e.g.
	// unregistered between ticks); their status word is owner business.
	for v := range r.quarantined {
		if !live[v] {
			delete(r.quarantined, v)
		}
	}

	if len(reaping) > 0 {
		// Every victim is in the Reaping phase: its owner, should it wake,
		// spins until FinishReap. Adopt and deregister all of them inside
		// that exclusion window — publishing Reaped before the registry
		// removal would let an owner resurrect (re-register) and then have
		// the batched removal strip its live registration, leaving its
		// shields unscanned and its critical sections invisible.
		for _, v := range reaping {
			n := v.Adopt()
			r.cfg.Rec.ReapedHandles.Inc()
			r.cfg.Rec.AdoptedNodes.Add(int64(n))
			if obs.On {
				r.trace.Rec(obs.EvAdopt, int64(n))
			}
		}
		r.tgt.Remove(reaping)
		for _, v := range reaping {
			v.FinishReap()
		}
		r.tgt.PostReap()
		r.cleanup = true
		r.cleanupLast = int64(^uint64(0) >> 1) // MaxInt64: first round always runs
		if obs.On {
			r.trace.Rec(obs.EvReap, int64(len(reaping)))
		}
	} else if r.cleanup {
		// Finish what the reap started: with every worker dead there is
		// nobody else left to advance the epoch or reclaim what the
		// adoption parked in the global paths. But only force rounds that
		// make progress: with live workers continuously retiring, the
		// gauge never touches zero, and forcing flush-and-advance every
		// tick forever would keep neutralizing their critical sections.
		u := r.cfg.Rec.Unreclaimed.Load()
		switch {
		case u <= 0 || u >= r.cleanupLast:
			r.cleanup = false
		default:
			r.cleanupLast = u
			r.tgt.PostReap()
		}
	}

	if bp := r.cfg.BP; bp != nil {
		bp.Refresh()
		if obs.On {
			// Workers cannot write shared traces (single-writer rings),
			// so the reaper mirrors the counter deltas into its own.
			if t := r.cfg.Rec.BackpressureThrottles.Load(); t > r.lastThrottles {
				r.trace.Rec(obs.EvThrottle, t-r.lastThrottles)
				r.lastThrottles = t
			}
			if j := r.cfg.Rec.BackpressureRejects.Load(); j > r.lastRejects {
				r.trace.Rec(obs.EvReject, j-r.lastRejects)
				r.lastRejects = j
			}
		}
	}
}

// Quarantined reports how many victims are currently in phase one. Only
// for tick-driven tests: once the reaper goroutine runs, the map belongs
// to it alone.
func (r *Reaper) Quarantined() int { return len(r.quarantined) }

// Ticks returns the number of completed reaper passes. Safe to read
// concurrently with the running goroutine; the shard health monitor uses
// it as the reaper-liveness probe.
func (r *Reaper) Ticks() int64 { return r.ticks.Load() }

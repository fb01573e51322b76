package core

import (
	"context"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// This file implements the Traverse API (Algorithm 7) as engine
// primitives: each data structure writes its own traversal loop with the
// step body inline and calls a Walk for the §4.3 bookkeeping — entering
// and resuming critical sections, per-step polling, checkpoint cadence,
// the double-buffered checkpoint commit, finishing and rollback
// accounting. The structure keeps the cursor, its two checkpoint copies
// and its two protectors (concrete types, indexed 0 and 1), so no step
// makes an interface or closure call. One loop serves both schemes:
// under HP-RCU a periodic checkpoint ends the bounded RCU phase
// (Algorithm 3) and the loop re-enters through the same resume path a
// HP-BRCU rollback takes.
//
// The loop shape every structure follows:
//
//	var w core.Walk
//	w.Begin(h)                 // or BeginCtx
//	defer w.Recover(op, &prots[0], &prots[1])
//	defer w.End()
//	for w.Enter() {
//	        if w.Fresh() {
//	                c = entry cursor
//	                i := w.Next(); prots[i].protect(&c); ckpt[i] = c
//	                if !w.Start() { continue }
//	        } else if c = ckpt[w.Idx()]; !valid(&c) {
//	                w.Fail(); return retry
//	        }
//	        for w.Tick() {
//	                step; on a Mask rollback: break
//	                      on a failed helping CAS: w.Fail(); return retry
//	                if finished {
//	                        i := w.Next(); prots[i].protect(&c)
//	                        ok, move := w.Finish()
//	                        if !ok { break }
//	                        if move { prots[1].protect(&c) }
//	                        return c
//	                }
//	                if w.Due() && valid(&c) {
//	                        i := w.Next(); prots[i].protect(&c); ckpt[i] = c
//	                        if !w.Commit() { break }
//	                }
//	        }
//	}
//	return w.Err() // the walk was cancelled
//
// Buffer 1 is the result buffer: a finished walk's cursor is protected
// there. Buffer 0 is the backup the double buffer alternates with.

// Walk is the engine state of one expedited traversal: the index of the
// complete checkpoint buffer, whether one exists, the resurrection
// generation it was protected under, the cancellation token, and a
// countdown to the next checkpoint. A Walk lives on its traversal's
// stack; the zero value is not usable until Begin.
type Walk struct {
	h    *Handle
	b    *brcu.Handle // nil under HP-RCU
	live *brcu.Handle // b, or idle under HP-RCU: what Tick polls

	ctx  context.Context // non-nil for a cancellable walk
	stop func() bool     // stops the HP-BRCU cancellation watcher
	tok  uint64          // HP-BRCU cancellation token (0: not cancellable)

	gen    uint64 // resurrection generation the checkpoints belong to
	period int    // checkpoint distance in steps
	left   int    // steps until the next checkpoint is due
	yc     int    // StepYield counter

	idx     int  // buffer holding the complete checkpoint
	have    bool // whether buffer idx holds one
	entered bool // a section was entered: the next HP-BRCU Enter is a rollback

	// slow is Enter's snapshot of every per-step gate (yield injection,
	// faults, the BRCU handle's instrumentation). All of them follow the
	// activation contract — they change only while no traversal runs —
	// so one flag tested per step covers the whole section.
	slow bool

	cancelled bool
}

// Begin prepares w for one traversal on h. It refuses a poisoned handle
// (see checkUsable).
func (w *Walk) Begin(h *Handle) {
	h.checkUsable()
	*w = Walk{h: h, b: h.brcu, live: h.brcu, period: h.d.backupPeriod, idx: 1}
	if w.b != nil {
		w.gen = w.b.Gen()
	} else {
		w.live = &idle
	}
}

// idle is a BRCU handle that never enters a section: its status word
// stays Out, so Live always reports true. HP-RCU walks poll it — RCU
// sections are never neutralized — which keeps Tick one branch for both
// schemes.
var idle brcu.Handle

// BeginCtx is Begin for a cancellable traversal. When ctx is done, the
// walk's own critical section is self-neutralized — the paper's signal
// mechanism repurposed as a request-timeout primitive — and the loop
// leaves through Enter returning false, rolled back at its last
// complete checkpoint with no shared state committed. Under HP-RCU there
// is no neutralization, so cancellation is observed at phase boundaries
// (at most BackupPeriod steps late). An already-done context returns its
// error without touching shared state. The caller must defer End.
func (w *Walk) BeginCtx(ctx context.Context, h *Handle) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w.Begin(h)
	w.ctx = ctx
	if b := w.b; b != nil {
		tok := b.ArmCancel()
		w.tok = tok
		w.stop = context.AfterFunc(ctx, func() { b.RequestCancel(tok) })
	}
	return nil
}

// End stops a cancellable walk's watcher and disarms its token; a no-op
// for walks begun with Begin. Deferred after Recover so it also runs —
// first — when a panic is contained.
func (w *Walk) End() {
	if w.stop != nil {
		w.stop()
		w.b.DisarmCancel()
	}
}

// Recover is the walk's recover barrier; defer it right after Begin. A
// panic that escaped the traversal (a step's user code, a masked body,
// an injected fault) drives the handle through the normal abort path,
// releases both protectors, and is re-raised per the panic policy.
func (w *Walk) Recover(op string, prot0, prot1 ProtectionClearer) {
	if r := recover(); r != nil {
		w.h.contain(r, op, func() {
			prot0.ClearProtection()
			prot1.ClearProtection()
		})
	}
}

// Enter opens the walk's critical section: at the start, after a
// rollback (the paper's siglongjmp target, Algorithm 7 line 15), and
// under HP-RCU at every phase boundary. It reports false when the walk
// was cancelled; the section is then closed and the loop returns Err.
//
// Every HP-BRCU section but the first ends in a rollback — a finished or
// failed walk returns without re-entering — so Enter is where rollbacks
// are counted, whichever primitive observed the neutralization.
//
// Under HP-BRCU the cancel request is checked before Enter — after
// RequestCancel's self-neutralization forced the section out — so a
// cancelled walk is abandoned in exactly the state a neutralized one
// resumes from. A changed resurrection generation means the lease
// reaper reaped the handle and Enter resurrected it: the shields backing
// both checkpoint buffers were cleared, so the walk restarts from its
// entry cursor.
func (w *Walk) Enter() bool {
	w.left = w.period
	w.yc = 0
	w.slow = fault.On || atomicx.YieldPeriod != 0
	if b := w.b; b != nil {
		if w.entered {
			b.RecordRollback()
		}
		w.entered = true
		if b.CancelPending(w.tok) {
			b.Exit() // clears the stale RbReq
			w.cancel()
			return false
		}
		b.Enter()
		w.slow = w.slow || b.Instrumented()
		if g := b.Gen(); g != w.gen {
			w.gen = g
			w.have = false
		}
		return true
	}
	if w.ctx != nil && w.ctx.Err() != nil {
		w.cancel()
		return false
	}
	w.h.rcu.Pin()
	return true
}

func (w *Walk) cancel() {
	w.cancelled = true
	w.h.d.rec.CancelledOps.Inc()
	if w.b != nil {
		w.b.TraceEvent(obs.EvCancel, 0)
	}
}

// Err is the error a walk whose Enter returned false reports: the
// context's error, or context.Canceled for a context whose Err
// momentarily reads nil after its watcher fired.
func (w *Walk) Err() error {
	if !w.cancelled {
		return nil
	}
	if err := w.ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// Fresh reports that no complete checkpoint exists: the caller builds
// the entry cursor, protects it into buffer Next, copies it into its
// checkpoint slot Next, and commits it with Start. A cursor created in
// the current section needs no validation (R2); validating it would be
// worse than wasteful — if the entry point's first node is logically
// deleted, rejecting the fresh cursor would stop every traversal from
// reaching (and helping unlink) it.
func (w *Walk) Fresh() bool { return !w.have }

// Idx is the buffer holding the last complete checkpoint. When Fresh is
// false the caller resumes from that checkpoint and revalidates it
// (Algorithm 7 line 17, §3.3) — it was protected in an earlier section.
func (w *Walk) Idx() int { return w.idx }

// Next is the buffer to protect the next checkpoint into: always the
// other one, so a rollback mid-checkpoint leaves buffer Idx intact
// (§4.3: at every moment one buffer holds a complete protected cursor).
func (w *Walk) Next() int { return w.idx ^ 1 }

// Start commits the entry cursor protected into buffer Next. The poll
// after protecting makes the checkpoint complete: if it succeeds the
// protection was published while the section was live, so reclaimers
// honour it. false means the section was neutralized; the caller
// re-enters.
func (w *Walk) Start() bool {
	if w.b != nil && !w.commitPoll() {
		return false
	}
	w.idx ^= 1
	w.have = true
	return true
}

// Tick runs at the top of every step: the yield injection, the
// traversal fault sites and the HP-BRCU poll. false means the section
// was neutralized; the caller breaks to re-enter. Tick inlines into the
// structure's loop: with every gate closed a step costs one flag test
// and one status load (CI checks `can inline (*Walk).Tick`).
func (w *Walk) Tick() bool {
	if w.slow {
		w.tick()
	}
	return w.live.Live()
}

// tick is Tick's gated work. It leaves the verdict to the Live that
// follows it, so Tick needs one out-of-line call, not two.
func (w *Walk) tick() {
	atomicx.StepYield(&w.yc)
	if fault.On {
		if w.b != nil && fault.Fire(fault.SiteStepRollback) {
			// Forced rollback at an arbitrary traversal step: plant the
			// request ourselves; the poll below observes it.
			w.b.SelfNeutralize()
		}
		if fault.Fire(fault.SitePanic) {
			// A panic standing in for one in the step's user code,
			// before any mutation: Recover contains it.
			panic(fault.ErrInjectedPanic)
		}
	}
	if w.b != nil {
		// Poll for its instrumentation — the fault site, the lease
		// stamp, the obs sample; Tick's Live reads the verdict.
		w.b.Poll()
	}
}

// Due counts one step and reports that a periodic checkpoint is due. A
// structure checkpoints only if its cursor would pass revalidation on
// resume (it is not sitting on a logically deleted node); otherwise it
// skips this one and the next falls due a full period later. Without
// that gate a deterministic traversal can livelock: every retry
// re-checkpoints the same doomed cursor and fails validation again.
func (w *Walk) Due() bool {
	if w.left--; w.left > 0 {
		return false
	}
	w.left = w.period
	return true
}

// Commit completes a periodic checkpoint the caller protected into
// buffer Next and copied into its checkpoint slot Next (Algorithm 7
// lines 21-24). Only a successful poll after the protection publishes
// the new complete index. Under HP-BRCU Commit then refreshes the
// announced epoch, so a long traversal stops blocking reclamation; under
// HP-RCU it ends the bounded phase (Algorithm 3's Steps boundary).
//
// false means the section ended — neutralized or, under HP-RCU, always —
// and the caller breaks to re-enter and resume from checkpoint Idx.
func (w *Walk) Commit() bool {
	b := w.b
	if b == nil {
		w.idx ^= 1
		w.h.rcu.Unpin()
		return false
	}
	if !w.commitPoll() {
		return false
	}
	w.idx ^= 1
	// Catch up with the global epoch; failure means the section was
	// neutralized at the checkpoint boundary.
	return b.Refresh()
}

// Finish commits the final cursor, protected into buffer Next, and
// closes the section. ok is false when the section was neutralized
// before the commit; the caller breaks to re-enter.
// move reports that the final protection is in buffer 0: the caller
// protects the cursor into buffer 1 too. That copy runs outside the
// section and is safe — buffer 0 keeps the nodes from being reclaimed.
func (w *Walk) Finish() (ok, move bool) {
	if b := w.b; b != nil {
		if !w.commitPoll() {
			return false, false
		}
		b.Exit()
	} else {
		w.h.rcu.Unpin()
	}
	w.idx ^= 1
	return true, w.idx == 0
}

// commitPoll is the HP-BRCU poll that completes a checkpoint. Its fault
// site sits between the caller's Protect and the poll: a neutralization
// in that window is the §4.3 double-buffer case, where buffer Next is
// half-written and only buffer Idx can be resumed from.
func (w *Walk) commitPoll() bool {
	if fault.On && fault.Fire(fault.SiteCheckpointRollback) {
		w.b.SelfNeutralize()
	}
	return w.b.Poll()
}

// Fail closes the section of a walk that cannot proceed: a resumed
// checkpoint failed revalidation, or a step's helping CAS failed
// (Algorithm 8 line 29). The operation retries from scratch; both are
// rare in practice (§4.3).
func (w *Walk) Fail() {
	if w.b != nil {
		w.b.Exit()
		return
	}
	w.h.rcu.Unpin()
}

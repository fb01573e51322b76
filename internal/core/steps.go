package core

// This file implements the explicit phase API of Algorithm 3 — the form
// in which §3 first presents RCU-expedited traversal, before §4.3 wraps
// it into Traverse (here the Walk primitives). Data structures that want
// manual control over phase boundaries (e.g. to fuse several logical
// steps into one critical section, or to interleave unrelated work
// between phases) use Phases directly; everything else should prefer a
// Walk loop.
//
// A Phases traversal looks like:
//
//	p := h.BeginPhases()
//	p.Section(func() { /* InitCursor: load + protect the entry cursor */ })
//	for {
//	    st := p.Section(func() StepStatus { /* Steps: bounded work */ })
//	    switch st { case PhaseFinish: ...; case PhaseFail: ... }
//	}
//	p.End()
//
// Under HP-RCU each Section is one RCU critical section (Algorithm 3's
// green regions); under HP-BRCU a Section can additionally be aborted by
// neutralization, in which case Section reports PhaseAbort and the caller
// — exactly like Algorithm 3's Fail path — revalidates its checkpointed
// cursor and either resumes or restarts.

// StepStatus is the outcome of one phase body (Algorithm 3's StepResult).
type StepStatus int

const (
	// PhaseContinue: the phase completed; run another.
	PhaseContinue StepStatus = iota
	// PhaseFinish: the traversal reached its destination.
	PhaseFinish
	// PhaseFail: the operation cannot proceed (validation failed); the
	// caller restarts from scratch.
	PhaseFail
	// PhaseAbort: the phase was neutralized mid-body (HP-BRCU only); the
	// body's effects since its start must be discarded and the phase
	// retried after revalidation.
	PhaseAbort
)

// Phases is an explicit phase-alternation session (Algorithm 3).
type Phases struct {
	h *Handle
}

// BeginPhases starts an explicit phase session.
func (h *Handle) BeginPhases() Phases { return Phases{h: h} }

// Section runs body as one critical-section phase. The body must obey R1
// (validate sources created in earlier phases before dereferencing
// through them), R2 (pointers created inside the body may be dereferenced
// and protected without validation), and R3 (abort-rollback-safety; use
// Handle.Mask for helping writes).
//
// Under HP-BRCU the returned status is PhaseAbort when the section was
// neutralized: the body ran (possibly partially — it is the body's job to
// only commit through protect-then-poll), and the caller must revalidate
// its last complete checkpoint before the next Section.
func (p Phases) Section(body func() StepStatus) StepStatus {
	h := p.h
	h.checkUsable()
	defer func() {
		if r := recover(); r != nil {
			// A panic escaped the phase body: restore the handle through
			// the abort path and re-raise per the panic policy. There are
			// no engine-owned protectors to clear here — the body manages
			// its own shields and overwrites them on the next phase.
			h.contain(r, "Section", nil)
		}
	}()
	if h.brcu != nil {
		h.brcu.Enter()
		st := body()
		if st != PhaseAbort && !h.brcu.Poll() {
			st = PhaseAbort
		}
		h.brcu.Exit()
		if st == PhaseAbort {
			h.brcu.RecordRollback()
		}
		return st
	}
	h.rcu.Pin()
	st := body()
	h.rcu.Unpin()
	if st == PhaseAbort {
		// RCU sections are never neutralized; treat a body-reported
		// abort as a failure to make misuse visible.
		return PhaseFail
	}
	return st
}

// Poll reports whether the current section is still live (HP-BRCU); it
// always reports true under HP-RCU. Bodies call it between steps and
// after protecting checkpoints, mirroring Algorithm 3's highlighted
// validation points.
func (p Phases) Poll() bool {
	if p.h.brcu != nil {
		return p.h.brcu.Poll()
	}
	return true
}

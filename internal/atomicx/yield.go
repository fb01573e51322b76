package atomicx

import "runtime"

// YieldPeriod, when non-zero, makes every traversal loop in this
// repository yield the processor each YieldPeriod steps (via StepYield).
//
// Purpose: on a single-CPU host the Go scheduler time-slices goroutines at
// ~10ms granularity, so a long-running read operation runs to completion
// without ever interleaving with the reclaimers that would neutralize it —
// which hides the starvation behaviour the paper's Figures 1 and 6
// measure on truly parallel hardware. The benchmark harness sets YieldPeriod
// on single-CPU hosts to restore step-granularity interleaving; it costs
// one predictable branch per step when zero.
//
// It must be set before any worker goroutine starts and not changed while
// they run.
var YieldPeriod int

// StepYield is called by traversal loops with a per-loop counter. The
// zero-period check is its whole fast path and stays within the
// compiler's inlining budget (CI checks `can inline StepYield`); the
// counting lives in stepYield.
func StepYield(counter *int) {
	if YieldPeriod != 0 {
		stepYield(counter)
	}
}

// stepYield stays out of line so StepYield's fast path inlines.
//
//go:noinline
func stepYield(counter *int) {
	*counter++
	if *counter >= YieldPeriod {
		*counter = 0
		runtime.Gosched()
	}
}

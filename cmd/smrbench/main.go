// Command smrbench regenerates the paper's tables and figures (§6 and the
// appendix) on the local machine and runs the fault-injection sweep.
//
// Usage:
//
//	smrbench [-metrics addr] [-watch d] [-schemes list] grid [grid flags]
//	smrbench [chaos flags] chaos
//
// Subcommands:
//
//	grid   the declarative experiment grid from experiments.json — every
//	       paper figure and table as an experiment (fig1 covers Figures 1
//	       and 6, fig5, fig7, appendixB, table2, ablation, plus pool and
//	       server): every point run N times, mean/std aggregated into
//	       schema-2 BENCH_*.json plus CSV and markdown; `grid -trajectory`
//	       prints a std-aware per-point delta report against the committed
//	       baselines and gates on §5 bounds, coverage and (same-machine)
//	       regressions (see gridcmd.go). Table 1 is pinned by
//	       internal/bench's TestSupportedMatchesTable1.
//	chaos  fault-injection sweep: seeds × schedules × schemes × lists,
//	       watchdog on; exits nonzero on any invariant violation. -leak
//	       composes goroutine-death faults into every schedule and turns
//	       the reaper's convergence invariant into part of the gate
//
// Numbers are not comparable to the paper's 64/96-thread testbeds; the
// shape (ordering, collapse points, boundedness) is what to compare.
package main

import (
	"flag"
	"fmt"
	"os"

	hpbrcu "github.com/smrgo/hpbrcu"
)

var schemes = flag.String("schemes", "", "comma-separated scheme filter (e.g. RCU,HP-BRCU); the default of grid's -schemes")

func main() {
	flag.Parse()
	switch {
	case flag.Arg(0) == "grid":
		startObservability()
		runGrid(flag.Args()[1:])
	case flag.Arg(0) == "chaos" && flag.NArg() == 1:
		startObservability()
		runChaos()
	default:
		fmt.Fprintln(os.Stderr, "usage: smrbench [flags] grid [grid flags] | smrbench [flags] chaos")
		os.Exit(2)
	}
}

// fatalArg reports a flag-value error and exits with the usage status.
func fatalArg(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func schemeFilter() []hpbrcu.Scheme {
	if *schemes == "" {
		return hpbrcu.Schemes
	}
	out, err := parseSchemes(*schemes)
	if err != nil {
		fatalArg(err)
	}
	return out
}

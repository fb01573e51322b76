// Command perfbench is the repository's benchmark. It drives three
// closed-loop workloads through the hpbrcu public API and smrcached, all
// on HP-BRCU, checks every result against a per-client model, and prints
// the end-to-end metrics by name and unit. With --trace 1 it runs the
// workload again with spans around its own calls into each layer and
// prints the per-layer metrics instead. The last line of output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload kv-mixed --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	traceDir string // where the traced run writes its spans; none when empty
}

// warm is the warm-up before each phase of a traced run.
func (o options) warm() time.Duration { return o.seconds / 10 }

// workloads map a name to a function that draws the workload's inputs
// from the seed and returns a function that builds instances over them.
var workloads = map[string]func(seed uint64) func() (*instance, error){
	"kv-mixed":      kvWorkload,
	"list-longscan": longscanWorkload,
	"cache-server":  cacheServerWorkload,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o       options
		seconds = fs.Int("seconds", 10, "length of the measured window, seconds")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	)
	fs.StringVar(&o.workload, "workload", "", "kv-mixed, list-longscan or cache-server")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated key and operation stream")
	fs.StringVar(&o.traceDir, "trace-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	inputs, ok := workloads[o.workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (kv-mixed|list-longscan|cache-server), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	o.seconds = time.Duration(*seconds) * time.Second
	o.traced = *trace == 1

	res, err := runWorkload(o, inputs(o.seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res.print(out)
	if !res.correct() {
		return 1
	}
	return 0
}

type metric struct {
	name, unit string
	value      float64
	samples    int64 // samples behind a percentile or mean; 0 for other metrics
}

// result is one run's report.
type result struct {
	opts      options
	metrics   []metric
	attempted int64
	failed    int64
	problems  []string // failed output checks
	notes     []string
}

func newResult(o options) *result { return &result{opts: o} }

func (r *result) add(name, unit string, v float64, samples int64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, samples: samples})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// addWindow counts a measured window's operations into the result.
func (r *result) addWindow(ws *windowStats) {
	r.attempted += ws.attempted
	r.failed += ws.failed
}

// addModels fails the run if a client's model found a wrong result.
// Those in a measured window are already counted as failed operations.
func (r *result) addModels(ms []*model) {
	for i, m := range ms {
		r.check(m.wrong == 0, "client %d: %d wrong results, first: %s", i, m.wrong, m.first)
	}
}

// addEndToEnd reports the end-to-end metrics of a measured window.
func (r *result) addEndToEnd(ws *windowStats, setup []float64) {
	r.add("setup_s", "s", median(setup), int64(len(setup)))
	r.add("read_ops_s", "ops/s", ws.readRate(), int64(len(ws.reads)))
	r.add("write_ops_s", "ops/s", ws.writeRate(), int64(len(ws.writes)))
	for _, q := range []struct {
		name string
		hs   []*hist
		q    float64
	}{
		{"read_p50_us", ws.readLat, 0.50},
		{"read_p95_us", ws.readLat, 0.95},
		{"write_p50_us", ws.writeLat, 0.50},
		{"write_p95_us", ws.writeLat, 0.95},
	} {
		v, n := quantileUS(q.hs, q.q)
		r.add(q.name, "us", v, n)
	}
	// p99 is printed but not a metric: on cache-server it follows the
	// host's other tenants rather than the program (see README.md).
	for _, q := range []struct {
		name string
		hs   []*hist
	}{{"read_p99_us", ws.readLat}, {"write_p99_us", ws.writeLat}} {
		if v, n := quantileUS(q.hs, 0.99); math.IsNaN(v) {
			r.note("%s not printed: fewer than 10 samples above it in some slice", q.name)
		} else {
			r.note("%s %.4g us (n=%d)", q.name, v, n)
		}
	}
	r.add("unreclaimed_mean", "nodes", median(ws.unreclaimed), ws.unreclaimedSamples)
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.note("failed_frac %g (%d of %d operations; carried in the result's failed and attempted fields)", frac, r.failed, r.attempted)
}

// perLayer lists every per-layer metric a traced run reports, in order.
var perLayer = []struct{ name, unit string }{
	{"hpbrcu.get_ns", "ns"}, {"hpbrcu.insert_ns", "ns"}, {"hpbrcu.remove_ns", "ns"},
	{"pool.acquire_ns", "ns"}, {"pool.release_ns", "ns"}, {"pool.exhausted_frac", "ratio"},
	{"shard.route_ns", "ns"},
	{"ds.get_ns", "ns"}, {"ds.insert_ns", "ns"}, {"ds.remove_ns", "ns"},
	{"core.ns_per_node", "ns/node"}, {"core.read_success_ratio", "ratio"},
	{"core.retired_per_write", "nodes/op"}, {"core.reclaimed_per_write", "nodes/op"},
	{"core.peak_unreclaimed", "nodes"}, {"core.garbage_bound", "nodes"},
	{"brcu.enter_exit_ns", "ns"}, {"brcu.poll_ns", "ns"},
	{"brcu.signals_per_kop", "1/kop"}, {"brcu.epoch_advances_per_kop", "1/kop"}, {"brcu.forced_advances_per_kop", "1/kop"},
	{"hp.protect_ns", "ns"}, {"alloc.alloc_free_ns", "ns"},
	{"reap.bp_throttles_per_kop", "1/kop"}, {"reap.bp_rejects_per_kop", "1/kop"},
	{"server.get_rtt_ns", "ns"}, {"server.set_rtt_ns", "ns"}, {"server.overhead_ns", "ns"}, {"server.inflight_rejects", "count"},
	{"runtime.allocs_per_op", "objs/op"}, {"runtime.gc_cpu_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"}, {"bench.clock_ns", "ns"}, {"bench.replay_gap_frac", "ratio"},
}

// layers collects a traced run's per-layer values by name.
type layers map[string]float64

// addLayers reports every per-layer metric. A layer the workload does not
// pass through reports 0 and is named in a note.
func (r *result) addLayers(l layers) {
	var bypassed []string
	for _, d := range perLayer {
		v, ok := l[d.name]
		if !ok {
			bypassed = append(bypassed, d.name)
		}
		r.add(d.name, d.unit, v, 0)
	}
	if len(bypassed) > 0 {
		r.note("not on this workload's path, reported as 0: %s", strings.Join(bypassed, " "))
	}
}

// addSpans reports the mean self time of the named spans as layer metrics.
func (l layers) addSpans(set spanSet, names map[string]spanName) {
	for metric, name := range names {
		if v, n := set.selfNS(name); n > 0 {
			l[metric] = v
		}
	}
}

func (r *result) print(out io.Writer) {
	o := r.opts
	trace := 0
	if o.traced {
		trace = 1
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d numcpu=%d go=%s\n",
		o.workload, o.seed, int(o.seconds/time.Second), trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	jm := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s has no value: too few samples", m.name)
			v = 0
		}
		samples := ""
		if m.samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.samples)
		}
		fmt.Fprintf(out, "  %-30s %14.6g %-8s%s\n", m.name, v, m.unit, samples)
		jm[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	sort.Strings(r.notes)
	for _, n := range r.notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "FAILED CHECK: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   jm,
	})
	if err != nil {
		panic(err) // every value is a finite float, string or bool
	}
	fmt.Fprintln(out, string(line))
}

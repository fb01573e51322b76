package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// spanName names a layer boundary the benchmark times around its own
// call into that layer.
type spanName uint8

const (
	spanFacadeGet    spanName = iota // hpbrcu.Map.Get, the handle-free facade
	spanFacadeInsert                 // hpbrcu.Map.Insert
	spanFacadeRemove                 // hpbrcu.Map.Remove
	spanReplayOp                     // one stepwise replay operation (parent of the four below)
	spanShardRoute                   // hpbrcu.ShardOf
	spanPoolAcquire                  // internal/pool Pool.Acquire
	spanPoolRelease                  // internal/pool Pool.Release
	spanDSGet                        // hpbrcu.MapHandle.Get
	spanDSInsert                     // hpbrcu.MapHandle.Insert
	spanDSRemove                     // hpbrcu.MapHandle.Remove
	spanServerGet                    // a GET request, write to reply read
	spanServerSet                    // a SET request
	spanServerDel                    // a DEL request
	numSpans
)

var spanNames = [numSpans]string{
	"hpbrcu.get", "hpbrcu.insert", "hpbrcu.remove", "replay.op",
	"shard.route", "pool.acquire", "pool.release",
	"ds.get", "ds.insert", "ds.remove",
	"server.get", "server.set", "server.del",
}

// keepSpans is how many spans one tracer keeps for the span file; the
// per-name aggregates cover every span regardless.
const keepSpans = 1 << 14

type span struct {
	op         uint64
	start, end int64
	parent     int32 // index in the same tracer's kept spans, -1 for a root
	name       spanName
}

type openSpan struct {
	name  spanName
	start int64
	child int64 // time covered by finished child spans
	idx   int32 // index in kept, -1 when not kept
}

type spanAgg struct{ n, self int64 }

// tracer records spans for one client goroutine: a stack of open spans,
// per-name counts and self time (a span's duration minus its children's),
// and the first keepSpans spans in full. A nil tracer, or
// one switched off, records nothing; drive switches a client's tracer on
// and off between operations.
type tracer struct {
	off   bool
	op    uint64
	stack []openSpan
	agg   [numSpans]spanAgg
	kept  []span
}

func newTracer(client int) *tracer {
	return &tracer{off: true, op: uint64(client) << 48, kept: make([]span, 0, keepSpans)}
}

// next starts a new operation: later spans carry its id.
func (t *tracer) next() {
	if t != nil && !t.off {
		t.op++
	}
}

func (t *tracer) begin(name spanName) {
	if t == nil || t.off {
		return
	}
	idx := int32(-1)
	if len(t.kept) < cap(t.kept) {
		idx = int32(len(t.kept))
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		t.kept = append(t.kept, span{op: t.op, parent: parent, name: name})
	}
	t.stack = append(t.stack, openSpan{name: name, idx: idx, start: now()})
}

func (t *tracer) end() {
	if t == nil || t.off {
		return
	}
	e := now()
	n := len(t.stack) - 1
	top := t.stack[n]
	t.stack = t.stack[:n]
	d := e - top.start
	a := &t.agg[top.name]
	a.n++
	a.self += d - top.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if top.idx >= 0 {
		t.kept[top.idx].start, t.kept[top.idx].end = top.start, e
	}
}

// spanSet is the tracers of one phase.
type spanSet []*tracer

// selfNS is the mean self time of name's spans across the set, and how
// many there were.
func (s spanSet) selfNS(name spanName) (float64, int64) {
	var n, self int64
	for _, t := range s {
		n += t.agg[name].n
		self += t.agg[name].self
	}
	if n == 0 {
		return 0, 0
	}
	return float64(self) / float64(n), n
}

// writeSpans writes every kept span of each phase to path as
// tab-separated rows.
func writeSpans(path string, phases map[string]spanSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "phase\tclient\top\tname\tparent\tstart_ns\tend_ns")
	for phase, set := range phases {
		for c, t := range set {
			for _, s := range t.kept {
				fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\t%d\n", phase, c, s.op&(1<<48-1), spanNames[s.name], s.parent, s.start, s.end)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes the traced run's kept spans under the trace
// directory, when one was given.
func (r *result) writeSpans(phases map[string]spanSet) {
	if r.opts.traceDir == "" {
		return
	}
	path := filepath.Join(r.opts.traceDir, fmt.Sprintf("%s-seed%d.tsv", r.opts.workload, r.opts.seed))
	if err := writeSpans(path, phases); err != nil {
		r.note("spans not written: %v", err)
		return
	}
	r.note("spans written to %s", path)
}

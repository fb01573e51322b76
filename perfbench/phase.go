package main

import (
	"runtime"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/pool"
)

// instance is one built workload.
type instance struct {
	m       hpbrcu.Map
	clients []client
	models  []*model
	// trace runs the traced phases, adding to the run's result and layers.
	trace func(r *result, o options, l layers)
	// close releases the clients and closes the map, returning the
	// close's error.
	close func() error
}

// rounds is how many fresh instances an end-to-end run builds and
// measures in turn, a fifth of the window each: one instance's memory
// layout and one stretch of the host's background load then move a
// fifth of the slices rather than the whole result.
const rounds = 5

// setups is how many instances an end-to-end run builds to time setup_s:
// the measured rounds, then more that are checked and closed unmeasured.
// One build's time varies by half with the runtime's background work, so
// setup_s is the median of many.
const setups = 15

// runWorkload performs one run: rounds of build, warm-up and measurement
// for the end-to-end metrics, then builds up to setups, or a single
// instance's traced phases. setup_s times build: map construction,
// prefill, server listen, and handle registration or dialling.
func runWorkload(o options, build func() (*instance, error)) (*result, error) {
	res := newResult(o)
	if o.traced {
		in, err := build()
		if err != nil {
			return nil, err
		}
		l := layers{}
		in.trace(res, o, l)
		l.addProbes()
		res.finish(in, l)
		res.addLayers(l)
		return res, nil
	}
	var setup []float64
	var all *windowStats
	d := o.seconds / rounds
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := now()
		in, err := build()
		if err != nil {
			return nil, err
		}
		setup = append(setup, float64(now()-t0)/1e9)
		if i < rounds {
			ph := runPhase(in.clients, nil, in.m, d/10, d)
			all = all.join(ph.ws)
		}
		res.finish(in, nil)
	}
	res.addWindow(all)
	res.addEndToEnd(all, setup)
	return res, nil
}

// finish checks an instance's garbage bound, closes it and checks the
// close, and counts its clients' wrong results.
func (r *result) finish(in *instance, l layers) {
	r.addBounds(in.m, l)
	r.checkClosed(in.m, in.close())
	r.addModels(in.models)
}

// phase is one measured window with the map's counters and the runtime
// metrics read around it.
type phase struct {
	ws            *windowStats
	before, after hpbrcu.StatsSnapshot
	gc0, gc1      gcSample
}

// runPhase warms the clients up for warm, then measures them for d,
// sampling m's unreclaimed level throughout. tracers, when not nil, are
// the clients' tracers, which record during the odd slices.
func runPhase(clients []client, tracers spanSet, m hpbrcu.Map, warm, d time.Duration) *phase {
	measure(clients, nil, newWindow(warm), nil)
	level := func() int64 { return hpbrcu.AggregateSnapshot(m).Unreclaimed }
	p := &phase{before: hpbrcu.AggregateSnapshot(m), gc0: readGCSample()}
	p.ws = measure(clients, tracers, newWindow(d), level)
	p.gc1 = readGCSample()
	p.after = hpbrcu.AggregateSnapshot(m)
	return p
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// addCounters reports the per-layer ratios of a phase's counter deltas
// and runtime metrics.
func (l layers) addCounters(p *phase) {
	reads, writes := sum(p.ws.reads), sum(p.ws.writes)
	kops := (reads + writes) / 1000
	b, a := p.before, p.after
	per := func(d int64, base float64) float64 {
		if base == 0 {
			return 0
		}
		return float64(d) / base
	}
	l["core.read_success_ratio"] = per(int64(reads), reads+float64(a.Rollbacks-b.Rollbacks))
	l["core.retired_per_write"] = per(a.Retired-b.Retired, writes)
	l["core.reclaimed_per_write"] = per(a.Reclaimed-b.Reclaimed, writes)
	l["brcu.signals_per_kop"] = per(a.Signals-b.Signals, kops)
	l["brcu.epoch_advances_per_kop"] = per(a.EpochAdvances-b.EpochAdvances, kops)
	l["brcu.forced_advances_per_kop"] = per(a.ForcedAdvances-b.ForcedAdvances, kops)
	l["reap.bp_throttles_per_kop"] = per(a.BackpressureThrottles-b.BackpressureThrottles, kops)
	l["reap.bp_rejects_per_kop"] = per(a.BackpressureRejects-b.BackpressureRejects, kops)
	if checkouts := a.PoolCheckouts - b.PoolCheckouts; checkouts > 0 {
		l["pool.exhausted_frac"] = per(a.PoolExhausted-b.PoolExhausted, float64(checkouts))
	}
	l.addGC(p.gc0, p.gc1, int64(reads+writes))
}

// tracedPhase runs the clients for half the seconds, their tracers
// recording in the odd slices, and adds the phase's counter, runtime and
// trace-overhead metrics.
func (r *result) tracedPhase(l layers, o options, m hpbrcu.Map, clients []client, set spanSet) {
	p := runPhase(clients, set, m, o.warm(), o.seconds/2)
	r.addWindow(p.ws)
	l.addCounters(p)
	l.addTraceOverhead(p)
}

// addTraceOverhead reports how much slower a traced phase read in its
// traced slices than in the untraced ones between them.
func (l layers) addTraceOverhead(p *phase) {
	u := p.ws.readRateOf(false)
	l["bench.trace_overhead_frac"] = (u - p.ws.readRateOf(true)) / u
}

// addBounds reads the §5 garbage bound and the peak unreclaimed level
// since the prefill, and checks the peak stays within the bound. The
// peak is the sum of the per-shard peaks, an upper bound on the peak of
// the whole map; the bound is the sum of the per-shard bounds.
func (r *result) addBounds(m hpbrcu.Map, l layers) {
	var peak int64
	for _, s := range hpbrcu.ShardSnapshots(m) {
		peak += s.PeakUnreclaimed
	}
	bound := hpbrcu.GarbageBoundObserved(m)
	r.check(bound > 0 && peak <= bound, "peak unreclaimed %d exceeds the observed §5 bound %d", peak, bound)
	if l != nil {
		l["core.peak_unreclaimed"] = float64(peak)
		l["core.garbage_bound"] = float64(bound)
	}
}

// closeTimeout bounds hpbrcu.Close and Server.Shutdown.
const closeTimeout = 5 * time.Second

// checkClosed checks that closing m returned nil and left no garbage.
func (r *result) checkClosed(m hpbrcu.Map, closeErr error) {
	r.check(closeErr == nil, "close: %v", closeErr)
	u := hpbrcu.AggregateSnapshot(m).Unreclaimed
	r.check(u == 0, "%d nodes unreclaimed after close", u)
}

// replayPool is an internal/pool Pool over m's registered handles, the
// pool type the facade checks its handles out of.
func replayPool(m hpbrcu.Map) *pool.Pool[hpbrcu.MapHandle] {
	return pool.New(pool.Config[hpbrcu.MapHandle]{
		New:    m.Register,
		Retire: func(h hpbrcu.MapHandle) { h.Unregister() },
	})
}

// replayClient performs every other operation of its stream through the
// facade's steps, called one at a time from outside: hpbrcu.ShardOf, a
// pool checkout, the MapHandle operation and the release. The others go
// through the facade itself, so both paths see the same key stream and
// contention.
type replayClient struct {
	*kvClient
	p     *pool.Pool[hpbrcu.MapHandle]
	shard int
}

func (c *replayClient) step(seq int) (bool, status) {
	if seq&1 == 0 {
		return c.kvClient.step(seq)
	}
	idx, op := unpack(c.stream[seq&(streamLen-1)])
	key := c.key(idx)
	write := op != opRead
	tr := c.tr
	tr.next()
	tr.begin(spanReplayOp)
	defer tr.end()

	tr.begin(spanShardRoute)
	c.shard += hpbrcu.ShardOf(c.m, key)
	tr.end()

	tr.begin(spanPoolAcquire)
	e, err := c.p.Acquire(nil)
	tr.end()
	if err != nil {
		return write, statusShed
	}
	h := e.Res()
	var st status
	switch op {
	case opRead:
		tr.begin(spanDSGet)
		v, found := h.Get(key)
		tr.end()
		st = c.model.get(idx, key, v, found)
	case opWrite:
		val := c.nextVal()
		tr.begin(spanDSInsert)
		ok := h.Insert(key, val)
		tr.end()
		st = c.model.insert(idx, key, val, ok)
	default:
		tr.begin(spanDSRemove)
		v, ok := h.Remove(key)
		tr.end()
		st = c.model.remove(idx, key, v, ok, true)
	}

	tr.begin(spanPoolRelease)
	c.p.Release(e)
	tr.end()
	return write, st
}

// runReplay runs replay clients over the kv clients' streams and models
// for a quarter of the seconds, and adds the pool, shard and ds layer
// metrics and the gap between the summed steps and the facade call.
func (r *result) runReplay(l layers, o options, m hpbrcu.Map, kcs []*kvClient) spanSet {
	p := replayPool(m)
	set := make(spanSet, len(kcs))
	clients := make([]client, len(kcs))
	for i, kc := range kcs {
		set[i] = newTracer(kc.id)
		kc.tr = set[i]
		clients[i] = &replayClient{kvClient: kc, p: p}
	}
	ph := runPhase(clients, set, m, o.warm(), o.seconds/4)
	r.addWindow(ph.ws)
	for _, kc := range kcs {
		kc.tr = nil
	}
	if left := p.Close(time.Now().Add(closeTimeout)); left != 0 {
		r.check(false, "replay pool: %d handles still checked out after close", left)
	}
	l.addSpans(set, map[string]spanName{
		"shard.route_ns":  spanShardRoute,
		"pool.acquire_ns": spanPoolAcquire,
		"pool.release_ns": spanPoolRelease,
		"ds.get_ns":       spanDSGet,
		"ds.insert_ns":    spanDSInsert,
		"ds.remove_ns":    spanDSRemove,
	})
	steps := 0.0
	for _, n := range []spanName{spanShardRoute, spanPoolAcquire, spanPoolRelease} {
		v, _ := set.selfNS(n)
		steps += v
	}
	steps += meanOf(set, spanDSGet, spanDSInsert, spanDSRemove)
	f := meanOf(set, spanFacadeGet, spanFacadeInsert, spanFacadeRemove)
	l["bench.replay_gap_frac"] = (steps - f) / f
	r.note("replay: shard+acquire+ds+release %.1f ns per operation against %.1f ns through the facade", steps, f)
	return set
}

// meanOf is the mean self time over all spans of the given names.
func meanOf(set spanSet, names ...spanName) float64 {
	var total, n float64
	for _, name := range names {
		v, c := set.selfNS(name)
		total += v * float64(c)
		n += float64(c)
	}
	if n == 0 {
		return 0
	}
	return total / n
}

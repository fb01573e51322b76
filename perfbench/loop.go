package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// epoch anchors the monotonic clock every timestamp is read from.
var epoch = time.Now()

// now reads the monotonic clock in nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// status is how one operation ended.
type status uint8

const (
	statusOK    status = iota
	statusShed         // an error return: load shed, -BUSY, -ERR
	statusWrong        // a result that disagrees with the client's model
	statusFatal        // a transport error; the client stops
)

// client is one closed-loop caller: step performs its seq-th operation
// and reports whether it was a write and how it ended. A client is
// driven by one goroutine at a time.
type client interface {
	step(seq int) (write bool, st status)
}

// window is a measured interval of n equal slices. Every metric is
// computed per slice and reported as the median over slices, so a short
// disturbance from outside the process moves one slice, not the result.
// In a traced window only the odd slices are traced, so the even ones
// measure the same load at the same time without tracing.
type window struct {
	begin int64 // start of slice 0, on the now() clock
	slice int64 // slice length, ns
	n     int
}

// sliceLen is the length of one slice. A window holds at least two, so
// a traced window always has a traced slice.
const sliceLen = 500 * time.Millisecond

func newWindow(d time.Duration) window {
	n := int(d / sliceLen)
	if n < 2 {
		n = 2
	}
	return window{begin: now(), slice: int64(d) / int64(n), n: n}
}

func (w window) end() int64 { return w.begin + int64(w.n)*w.slice }

// at maps a timestamp to its slice: -1 before the start, n past the end.
func (w window) at(t int64) int {
	if t < w.begin {
		return -1
	}
	if i := int((t - w.begin) / w.slice); i < w.n {
		return i
	}
	return w.n
}

// sliceTally is what one client completed in one slice.
type sliceTally struct {
	reads, writes, failed int64
	readLat, writeLat     *hist
}

// drive runs c in a closed loop until the window ends, timing every
// operation; an operation completing after the end is not counted. A
// failed operation is recorded at the histogram's ceiling, so it misses
// every latency limit. tr, when not nil, is c's tracer: drive switches it
// on for the operations that start in odd slices.
func drive(c client, tr *tracer, w window) []sliceTally {
	tally := make([]sliceTally, w.n)
	for i := range tally {
		tally[i] = sliceTally{readLat: newHist(), writeLat: newHist()}
	}
	defer func() {
		if tr != nil {
			tr.off = true
		}
	}()
	for seq := 0; ; seq++ {
		t0 := now()
		if tr != nil {
			tr.off = w.at(t0)%2 == 0
		}
		write, st := c.step(seq)
		t1 := now()
		i := w.at(t1)
		if i == w.n {
			return tally
		}
		if i >= 0 {
			tally[i].record(write, st, t1-t0)
		}
		if st == statusFatal {
			return tally
		}
	}
}

func (s *sliceTally) record(write bool, st status, lat int64) {
	if st != statusOK {
		s.failed++
		lat = math.MaxInt64
	}
	if write {
		s.writes++
		s.writeLat.add(lat)
	} else {
		s.reads++
		s.readLat.add(lat)
	}
}

// windowStats merges every client's tallies and the garbage sampler's
// readings of one window.
type windowStats struct {
	w                  window
	reads, writes      []float64 // per slice, all clients
	readLat, writeLat  []*hist
	attempted, failed  int64
	unreclaimed        []float64 // mean sampled level per slice
	unreclaimedSamples int64
}

// measure runs every client over w concurrently, sampling level (when
// non-nil) every millisecond until the window ends. tracers, when not
// nil, holds each client's tracer.
func measure(clients []client, tracers spanSet, w window, level func() int64) *windowStats {
	tallies := make([][]sliceTally, len(clients))
	sum := make([]float64, w.n)
	cnt := make([]int64, w.n)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		var tr *tracer
		if tracers != nil {
			tr = tracers[i]
		}
		go func(i int, c client) {
			defer wg.Done()
			tallies[i] = drive(c, tr, w)
		}(i, c)
	}
	if level != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for range tick.C {
				v := level()
				i := w.at(now())
				if i == w.n {
					return
				}
				if i >= 0 {
					sum[i] += float64(v)
					cnt[i]++
				}
			}
		}()
	}
	wg.Wait()

	ws := &windowStats{w: w, reads: make([]float64, w.n), writes: make([]float64, w.n)}
	for i := 0; i < w.n; i++ {
		rl, wl := newHist(), newHist()
		for _, t := range tallies {
			s := t[i]
			ws.reads[i] += float64(s.reads)
			ws.writes[i] += float64(s.writes)
			ws.attempted += s.reads + s.writes
			ws.failed += s.failed
			rl.merge(s.readLat)
			wl.merge(s.writeLat)
		}
		ws.readLat = append(ws.readLat, rl)
		ws.writeLat = append(ws.writeLat, wl)
		if cnt[i] > 0 {
			ws.unreclaimed = append(ws.unreclaimed, sum[i]/float64(cnt[i]))
		}
		ws.unreclaimedSamples += cnt[i]
	}
	return ws
}

// join appends o's slices to ws's; a nil ws starts with o's. Both must
// have the same slice length.
func (ws *windowStats) join(o *windowStats) *windowStats {
	if ws == nil {
		return o
	}
	ws.reads = append(ws.reads, o.reads...)
	ws.writes = append(ws.writes, o.writes...)
	ws.readLat = append(ws.readLat, o.readLat...)
	ws.writeLat = append(ws.writeLat, o.writeLat...)
	ws.attempted += o.attempted
	ws.failed += o.failed
	ws.unreclaimed = append(ws.unreclaimed, o.unreclaimed...)
	ws.unreclaimedSamples += o.unreclaimedSamples
	return ws
}

func (ws *windowStats) sliceSeconds() float64 { return float64(ws.w.slice) / 1e9 }

// readRate and writeRate are the median per-slice completions per second.
func (ws *windowStats) readRate() float64  { return median(ws.reads) / ws.sliceSeconds() }
func (ws *windowStats) writeRate() float64 { return median(ws.writes) / ws.sliceSeconds() }

// readRateOf is the median reads per second over the odd (traced) or the
// even slices.
func (ws *windowStats) readRateOf(odd bool) float64 {
	var xs []float64
	for i, r := range ws.reads {
		if (i%2 == 1) == odd {
			xs = append(xs, r)
		}
	}
	return median(xs) / ws.sliceSeconds()
}

// quantileUS is the median over slices of each slice's q-quantile, in
// microseconds, with the sample count behind it. It is NaN when a slice
// holds too few samples for q.
func quantileUS(hs []*hist, q float64) (us float64, samples int64) {
	vals := make([]float64, len(hs))
	for i, h := range hs {
		vals[i] = h.quantile(q) / 1e3
		samples += h.n
	}
	return median(vals), samples
}

// median of xs; NaN if any is NaN or xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	for _, x := range s {
		if math.IsNaN(x) {
			return math.NaN()
		}
	}
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

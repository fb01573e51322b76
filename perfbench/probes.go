package main

import (
	"runtime/metrics"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/hp"
)

// Unit-cost probes time one layer primitive in a tight loop on a private
// instance built with the workloads' Config defaults. A primitive takes a
// few nanoseconds, far below what a span can resolve, so each probe times
// a whole loop: probeRounds rounds of probeIters calls, median round.
const (
	probeIters  = 1 << 20
	probeRounds = 5
)

// sink keeps probe results observable so no loop is optimised away.
var sink uint64

func probeNS(body func(n int)) float64 {
	rounds := make([]float64, probeRounds)
	for i := range rounds {
		t0 := now()
		body(probeIters)
		rounds[i] = float64(now()-t0) / probeIters
	}
	return median(rounds)
}

type probeNode struct{ key, val int64 }

// addProbes measures the brcu, hp, alloc and clock unit costs.
func (l layers) addProbes() {
	cc := hpbrcu.Config{}.CoreConfig()

	bd := brcu.NewDomain(nil, brcu.WithMaxLocalTasks(cc.MaxLocalTasks), brcu.WithForceThreshold(cc.ForceThreshold))
	bh := bd.Register()
	l["brcu.enter_exit_ns"] = probeNS(func(n int) {
		for i := 0; i < n; i++ {
			bh.Enter()
			bh.Exit()
		}
	})
	l["brcu.poll_ns"] = probeNS(func(n int) {
		bh.Enter()
		for i := 0; i < n; i++ {
			if bh.Poll() {
				sink++
			}
		}
		bh.Exit()
	})
	bh.Unregister()

	hd := hp.NewDomain(nil, hp.WithScanThreshold(cc.ScanThreshold), hp.WithAllocator(cc.Allocator))
	hh := hd.Register()
	shield := hh.NewShield()
	var src atomicx.AtomicRef
	src.Store(atomicx.MakeRef(1, 0))
	l["hp.protect_ns"] = probeNS(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(hp.ProtectFrom(shield, &src))
		}
	})
	shield.Clear()
	hh.Unregister()

	pool := alloc.NewPool[probeNode](cc.Allocator)
	cache := pool.NewCache()
	l["alloc.alloc_free_ns"] = probeNS(func(n int) {
		for i := 0; i < n; i++ {
			slot, node := pool.Alloc(cache)
			node.key = int64(i)
			pool.Hdr(slot).Retire()
			pool.FreeSlot(slot)
		}
	})

	l["bench.clock_ns"] = probeNS(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(now())
		}
	})
}

// gcSample is one reading of the runtime metrics behind the GC columns:
// cumulative heap objects allocated, and cumulative GC and total CPU
// time. The keys are the ones internal/bench reads for the grid.
type gcSample struct {
	allocObjects uint64
	gcCPUSeconds float64
	cpuSeconds   float64
}

var gcSampleKeys = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGCSample() gcSample {
	s := make([]metrics.Sample, len(gcSampleKeys))
	for i, k := range gcSampleKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	var out gcSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocObjects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPUSeconds = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.cpuSeconds = s[2].Value.Float64()
	}
	return out
}

// addGC reports heap objects allocated per operation and the share of
// all CPU time spent in the garbage collector between two samples.
func (l layers) addGC(start, end gcSample, ops int64) {
	if ops > 0 {
		l["runtime.allocs_per_op"] = float64(end.allocObjects-start.allocObjects) / float64(ops)
	}
	if cpu := end.cpuSeconds - start.cpuSeconds; cpu > 0 {
		l["runtime.gc_cpu_frac"] = (end.gcCPUSeconds - start.gcCPUSeconds) / cpu
	}
}

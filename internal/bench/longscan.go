package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// LongScanConfig configures the long-running-operation workload of
// Figures 1 and 6: reader threads repeatedly perform long get()
// traversals over a large list while writer threads churn the head,
// generating heavy reclamation pressure. Under NBR/DEBRA+-style
// coarse-grained rollback the readers starve once a traversal outlives
// the signal period; HP-RCU/HP-BRCU keep completing.
type LongScanConfig struct {
	Structure Structure // HHSList for most schemes; HMList for plain HP
	Scheme    hpbrcu.Scheme
	Readers   int
	Writers   int
	// KeyRange controls the traversal length: the list is prefilled with
	// KeyRange/2 elements and each get draws a uniform key.
	KeyRange int64
	Duration time.Duration
	Config   hpbrcu.Config
	Seed     uint64
}

// LongScanResult extends Result with reader-only throughput (the paper's
// Figure 1/6 y-axis counts read operations).
type LongScanResult struct {
	Result
	ReadOps  int64
	WriteOps int64
}

// ReadThroughput returns completed read operations per second.
func (r LongScanResult) ReadThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.ReadOps) / r.Elapsed.Seconds()
}

// RunLongScan executes the long-running-operation workload.
func RunLongScan(cfg LongScanConfig) LongScanResult {
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	enableInterleaving()
	m, ok := NewMap(cfg.Structure, cfg.Scheme, cfg.KeyRange, cfg.Config)
	if !ok {
		panic("bench: unsupported long-scan combination")
	}
	// Prefill every other key (deterministic size KeyRange/2), descending
	// so the list prefill is O(n).
	{
		h := m.Register()
		for k := cfg.KeyRange - 2; k >= 0; k -= 2 {
			h.Insert(k, k)
		}
		h.Unregister()
	}
	hpbrcu.ResetUnreclaimedPeaks(m)
	obs.SetRun(fmt.Sprintf("longscan %s/%s readers=%d writers=%d keys=%d",
		cfg.Structure, cfg.Scheme, cfg.Readers, cfg.Writers, cfg.KeyRange), m.Stats())

	var (
		stop      atomic.Bool
		readOps   atomic.Int64
		writeOps  atomic.Int64
		wg        sync.WaitGroup
		ready     sync.WaitGroup
		startGate = make(chan struct{})
	)

	for w := 0; w < cfg.Readers; w++ {
		wg.Add(1)
		ready.Add(1)
		go func(id uint64) {
			defer wg.Done()
			labelWorker(cfg.Structure, cfg.Scheme, "reader")
			h := m.Register()
			defer h.Unregister()
			rng := atomicx.NewRand(cfg.Seed*31 + id)
			ready.Done()
			<-startGate
			ops := int64(0)
			for !stop.Load() {
				h.Get(rng.Intn(cfg.KeyRange))
				ops++
			}
			readOps.Add(ops)
		}(uint64(w))
	}

	// Writers churn the head: keys below every reader key, so their own
	// operations stay short while generating maximal retirement pressure.
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		ready.Add(1)
		go func(id int64) {
			defer wg.Done()
			labelWorker(cfg.Structure, cfg.Scheme, "writer")
			h := m.Register()
			defer h.Unregister()
			ready.Done()
			<-startGate
			ops := int64(0)
			k := -(id + 1) // unique negative key per writer
			for !stop.Load() {
				h.Insert(k, k)
				h.Remove(k)
				ops += 2
				// Yield per pair so reader and writer steps interleave at
				// fine granularity even on a single CPU (see
				// atomicx.YieldPeriod for the reader side).
				runtime.Gosched()
			}
			writeOps.Add(ops)
		}(int64(w))
	}

	// Registration stays out of the window, as in RunMixed: the clock
	// starts once every worker holds its handle.
	ready.Wait()
	gc0 := readGCSample()
	t0 := time.Now()
	close(startGate)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	gc1 := readGCSample()

	s := hpbrcu.AggregateSnapshot(m)
	r := LongScanResult{
		Result: Result{
			Ops:             readOps.Load() + writeOps.Load(),
			Elapsed:         elapsed,
			PeakUnreclaimed: s.PeakUnreclaimed,
			Unreclaimed:     s.Unreclaimed,
			Retired:         s.Retired,
			Signals:         s.Signals,
			Rollbacks:       s.Rollbacks,
			CSP99:           s.CSNanos.P99,
		},
		ReadOps:  readOps.Load(),
		WriteOps: writeOps.Load(),
	}
	r.AllocsPerOp, r.GCCPUFrac = gcPressure(gc0, gc1, r.Ops)
	return r
}

// LongScanStructureFor returns the list flavour the paper uses per scheme
// in the long-running benchmark: HMList for plain HP, HHSList otherwise.
func LongScanStructureFor(s hpbrcu.Scheme) Structure {
	if s == hpbrcu.HP {
		return HMList
	}
	return HHSList
}

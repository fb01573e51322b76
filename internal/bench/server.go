package bench

// The end-to-end server workload: a real smrcached instance (TCP, line
// protocol, degradation ladder) on a loopback listener, driven by the
// open-loop generator in internal/server/loadgen. Unlike the in-process
// pipelines this measures the whole service path — parse, admission,
// facade checkout, reply — so its headline numbers are completed
// requests/s and the open-loop p99/p999 (measured from each request's
// scheduled arrival, so queueing delay under overload is charged to the
// server, not hidden by a stalled client).

import (
	"context"
	"fmt"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/server"
	"github.com/smrgo/hpbrcu/internal/server/loadgen"
)

// ServerConfig configures one end-to-end server measurement point.
type ServerConfig struct {
	Scheme hpbrcu.Scheme
	// Rate is the offered load in requests/second (open loop).
	Rate int
	// Conns is the generator's worker-connection count.
	Conns    int
	KeyRange int64
	Duration time.Duration
	Seed     uint64
	// Shards splits the store into that many independent SMR domains
	// (<=1 keeps the unsharded baseline map); above 1 the per-shard
	// health monitor runs too, matching smrcached's -shards posture.
	Shards int
}

// ServerResult is one end-to-end server measurement.
type ServerResult struct {
	// Completed counts requests that got a definitive reply (hit or miss).
	Completed int64
	// Busy counts requests still -BUSY after the generator's retries.
	Busy    int64
	Elapsed time.Duration
	// P50/P99/P999 are open-loop request latencies in nanoseconds.
	P50, P99, P999  int64
	PeakUnreclaimed int64
	// Bound is the observed §5 bound (-1 for non-HP-BRCU schemes).
	Bound int64
	CSP99 int64
	// AllocsPerOp and GCCPUFrac are the GC-pressure columns over the
	// load window (see gcsample.go); ops here are completed requests.
	// The generator runs in process, so its allocations count too.
	AllocsPerOp float64
	GCCPUFrac   float64
}

// Throughput returns completed requests per second.
func (r ServerResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// RunServer executes one end-to-end measurement: build a real map with
// the production posture (backpressure + reaper + PanicRecover), serve
// it on a loopback listener, offer cfg.Rate requests/s for cfg.Duration,
// then drain. The §5 accounting survives the whole path: for
// domain-backed schemes the drain must balance the books or the run
// panics (a bench that leaks garbage is measuring a bug, not a scheme).
func RunServer(cfg ServerConfig) ServerResult {
	if cfg.Conns <= 0 {
		cfg.Conns = 8
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 1024
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultBenchSeed
	}
	enableInterleaving()
	m, err := hpbrcu.NewHashMap(cfg.Scheme, hpbrcu.DefaultBuckets(cfg.KeyRange), hpbrcu.Config{
		PanicPolicy:  hpbrcu.PanicRecover,
		Reaper:       hpbrcu.ReaperConfig{Enabled: true},
		Backpressure: hpbrcu.BackpressureConfig{Enabled: true},
		Shards: hpbrcu.ShardsConfig{
			Count:  cfg.Shards,
			Health: hpbrcu.ShardHealthConfig{Enabled: cfg.Shards > 1},
		},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: server map: %v", err))
	}
	for k := int64(0); k < cfg.KeyRange/2; k++ {
		m.Insert(k*2, k)
	}
	hpbrcu.ResetUnreclaimedPeaks(m)

	s, err := server.New(server.Config{Map: m, RetryAfter: 2 * time.Millisecond})
	if err != nil {
		panic(fmt.Sprintf("bench: server: %v", err))
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("bench: server listen: %v", err))
	}

	gc0 := readGCSample()
	res, err := loadgen.Run(loadgen.Config{
		Addr:     addr.String(),
		Rate:     cfg.Rate,
		Conns:    cfg.Conns,
		Duration: cfg.Duration,
		Keys:     cfg.KeyRange,
		SetFrac:  0.2, DelFrac: 0.05, ScanFrac: 0.05,
		MaxRetries: 2,
		RetryCap:   10 * time.Millisecond,
		Seed:       int64(cfg.Seed),
	})
	gc1 := readGCSample()
	if err != nil {
		panic(fmt.Sprintf("bench: loadgen: %v", err))
	}

	snap := hpbrcu.AggregateSnapshot(m)
	bound := hpbrcu.GarbageBoundObserved(m)
	out := ServerResult{
		Completed:       res.OK + res.Miss,
		Busy:            res.Busy,
		Elapsed:         res.Elapsed,
		P50:             res.Lat.P50,
		P99:             res.Lat.P99,
		P999:            res.Lat.P999,
		PeakUnreclaimed: snap.PeakUnreclaimed,
		Bound:           bound,
		CSP99:           snap.CSNanos.P99,
	}
	out.AllocsPerOp, out.GCCPUFrac = gcPressure(gc0, gc1, out.Completed)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		panic(fmt.Sprintf("bench: server drain: %v", err))
	}
	return out
}

// serverRates is the default offered-load sweep of the server pipeline:
// one comfortable point and one pushing the loopback service hard enough
// that admission and backpressure participate.
var serverRates = []int{2000, 8000}

// serverConns is the server pipeline's default generator connections.
const serverConns = 8

// BenchServer measures the end-to-end smrcached workload per scheme and
// offered rate. OpsPerSec is completed requests/s; the schema-2 points
// also carry the open-loop p99/p999, which the grid emitters surface as
// the service's tail-latency columns.
func BenchServer(cfg PipelineConfig) *BenchFile {
	cfg.normalize()
	f := cfg.file("server")
	for _, rate := range cfg.Rates {
		for _, nsh := range cfg.Shards {
			workload := fmt.Sprintf("tcp/rate=%05d/conns=%02d", rate, cfg.Conns)
			if nsh > 1 {
				workload += fmt.Sprintf("/shards=%d", nsh)
			}
			for _, s := range shardSchemes(cfg.Schemes, nsh) {
				res := RunServer(ServerConfig{
					Scheme: s, Rate: rate, Conns: cfg.Conns,
					KeyRange: 1024, Duration: cfg.Duration, Seed: cfg.Seed,
					Shards: nsh,
				})
				f.Points = append(f.Points, BenchPoint{
					Workload:        workload,
					Scheme:          s.String(),
					OpsPerSec:       res.Throughput(),
					PeakUnreclaimed: res.PeakUnreclaimed,
					P99CSNanos:      res.CSP99,
					Bound:           res.Bound,
					P99Nanos:        res.P99,
					P999Nanos:       res.P999,
					AllocsPerOp:     res.AllocsPerOp,
					GCCPUFrac:       res.GCCPUFrac,
				})
			}
		}
	}
	return f
}

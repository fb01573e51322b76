package bench

// The experiment pipelines behind `smrbench grid`: fixed-seed
// renditions of the paper's figures and tables (plus the facade's pool
// workload and the end-to-end server) that produce BenchFile reports.
// Thread counts are pinned (not scaled to GOMAXPROCS) so the committed
// BENCH_*.json stay point-compatible across machines — the trajectory
// gate checks coverage by (workload, scheme) key. The per-experiment
// sweep knobs (key-range exponents, thread count, pool ceilings, writer
// count) are overridable so experiments.json can declare narrower or
// wider grids without forking the pipelines.

import (
	"fmt"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// PipelineConfig configures one Bench* pipeline run.
type PipelineConfig struct {
	// Seed is the workload seed (DefaultBenchSeed when zero).
	Seed uint64
	// Duration is the measurement time per point (defaultDuration when
	// zero).
	Duration time.Duration
	// Schemes restricts the scheme sweep; nil runs hpbrcu.Schemes.
	Schemes []hpbrcu.Scheme

	// Sweep overrides (zero values keep each experiment's committed
	// default, so a zero PipelineConfig reproduces the baselines):

	// KeyRangeExps overrides fig1's key-range exponents.
	KeyRangeExps []int
	// Threads overrides the pinned thread count of the mixed-workload
	// experiments (fig5, fig7, appendixB and the ablation's batch sweep).
	Threads int
	// PoolSizes overrides the pool experiment's ceiling sweep.
	PoolSizes []int
	// Writers overrides table2's writer count.
	Writers int
	// KeyRange overrides table2's key range.
	KeyRange int64
	// Rates overrides the server experiment's offered-load sweep
	// (requests/second per point).
	Rates []int
	// Conns overrides the server experiment's generator connections.
	Conns int
	// Shards is the shard-count sweep of the fig1 and server experiments
	// (default [1]). Entries above 1 run HP-BRCU only — sharding is the
	// fault-isolation feature of that scheme's domains — and suffix the
	// workload name with "/shards=N", so shards=1 points keep their
	// baseline-compatible names.
	Shards []int
	// Allocators is the allocator sweep of fig1 and the mixed-workload
	// experiments (default pool only). Arena points run every scheme and
	// suffix the workload name with "/alloc=arena", so pool points keep
	// their baseline-compatible names. See DESIGN.md §16 for the arena
	// design.
	Allocators []hpbrcu.Allocator
}

// defaultDuration is the measurement time per point when neither the
// grid spec nor the caller sets one.
const defaultDuration = 300 * time.Millisecond

// normalize resolves every default of a pipeline run — the only place
// the seed and duration defaults live; the grid runner passes zero
// values through when neither the spec nor the CLI sets them.
func (c *PipelineConfig) normalize() {
	if c.Seed == 0 {
		c.Seed = DefaultBenchSeed
	}
	if c.Duration <= 0 {
		c.Duration = defaultDuration
	}
	if c.Schemes == nil {
		c.Schemes = hpbrcu.Schemes
	}
	if len(c.KeyRangeExps) == 0 {
		c.KeyRangeExps = fig1Exps
	}
	if c.Threads <= 0 {
		c.Threads = mixedThreads
	}
	if len(c.PoolSizes) == 0 {
		c.PoolSizes = poolSizes
	}
	if c.Writers <= 0 {
		c.Writers = 2
	}
	if c.KeyRange <= 0 {
		c.KeyRange = 256
	}
	if len(c.Rates) == 0 {
		c.Rates = serverRates
	}
	if c.Conns <= 0 {
		c.Conns = serverConns
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1}
	}
	if len(c.Allocators) == 0 {
		c.Allocators = []hpbrcu.Allocator{hpbrcu.AllocatorPool}
	}
}

// allocSuffix names an allocator sweep point: pool (the default mode)
// contributes nothing so baseline workload names survive an Allocators
// sweep that includes it.
func allocSuffix(a hpbrcu.Allocator) string {
	if a == hpbrcu.AllocatorPool {
		return ""
	}
	return "/alloc=" + a.String()
}

// shardSchemes restricts a shard sweep point's scheme list: shard counts
// above 1 run HP-BRCU only (nil when HP-BRCU is filtered out entirely).
func shardSchemes(schemes []hpbrcu.Scheme, shards int) []hpbrcu.Scheme {
	if shards <= 1 {
		return schemes
	}
	return onlySchemes(schemes, hpbrcu.HPBRCU)
}

// onlySchemes returns the members of want present in schemes, in
// schemes' order.
func onlySchemes(schemes []hpbrcu.Scheme, want ...hpbrcu.Scheme) []hpbrcu.Scheme {
	var out []hpbrcu.Scheme
	for _, s := range schemes {
		for _, w := range want {
			if s == w {
				out = append(out, s)
			}
		}
	}
	return out
}

func (c *PipelineConfig) file(experiment string) *BenchFile {
	return &BenchFile{
		Experiment:  experiment,
		Schema:      ReportSchema,
		Seed:        c.Seed,
		DurationMS:  c.Duration.Milliseconds(),
		Environment: CurrentEnvironment(),
	}
}

// resultPoint turns a mixed or long-scan measurement into a report
// point whose headline throughput is ops.
func resultPoint(workload string, s hpbrcu.Scheme, ops float64, r Result) BenchPoint {
	return BenchPoint{
		Workload:        workload,
		Scheme:          s.String(),
		OpsPerSec:       ops,
		PeakUnreclaimed: r.PeakUnreclaimed,
		P99CSNanos:      r.CSP99,
		Bound:           -1,
		AllocsPerOp:     r.AllocsPerOp,
		GCCPUFrac:       r.GCCPUFrac,
	}
}

// experiments is the experiment registry, in canonical order: the one
// table the grid runner, experiments.json validation and error messages
// resolve names through, so adding an experiment here is the whole
// wiring job. TestExperimentRegistry requires every entry to be
// declared in the committed experiments.json, so no runner goes
// ungated.
var experiments = []struct {
	name string
	run  func(PipelineConfig) *BenchFile
}{
	{"fig1", BenchFig1},
	{"fig5", mixedRunner("fig5", fig5Parts)},
	{"table2", BenchTable2},
	{"pool", BenchPool},
	{"server", BenchServer},
	{"fig7", mixedRunner("fig7", fig7Parts)},
	{"appendixB", mixedRunner("appendixB", appendixBParts())},
	{"ablation", BenchAblation},
}

// ExperimentNames returns the pipeline experiments in canonical order.
func ExperimentNames() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// RunnerFor resolves an experiment name to its pipeline entry point.
func RunnerFor(name string) (func(PipelineConfig) *BenchFile, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e.run, true
		}
	}
	return nil, false
}

// fig1Exps are the default key-range exponents of the fig1 sweep (list
// length is KeyRange/2, so these span ~128–16384-element traversals):
// 8–13 is Figure 1's range and 8–15 Figure 6's, so one file covers both.
var fig1Exps = []int{8, 9, 10, 11, 12, 13, 14, 15}

// BenchFig1 measures the long-running-operation workload (Figures 1
// and 6): reader throughput and peak unreclaimed blocks per key range,
// with two readers against two head-churning writers. OpsPerSec is
// reads/s — the paper's y-axis.
func BenchFig1(cfg PipelineConfig) *BenchFile {
	cfg.normalize()
	f := cfg.file("fig1")
	for _, e := range cfg.KeyRangeExps {
		for _, nsh := range cfg.Shards {
			for _, al := range cfg.Allocators {
				workload := fmt.Sprintf("keys=2^%02d", e)
				if nsh > 1 {
					workload += fmt.Sprintf("/shards=%d", nsh)
				}
				workload += allocSuffix(al)
				for _, s := range shardSchemes(cfg.Schemes, nsh) {
					mc := hpbrcu.Config{Allocator: al}
					if nsh > 1 {
						mc.Shards = hpbrcu.ShardsConfig{Count: nsh}
					}
					res := RunLongScan(LongScanConfig{
						Structure: LongScanStructureFor(s), Scheme: s,
						Readers: 2, Writers: 2,
						KeyRange: 1 << e, Duration: cfg.Duration, Seed: cfg.Seed,
						Config: mc,
					})
					f.Points = append(f.Points, resultPoint(workload, s, res.ReadThroughput(), res.Result))
				}
			}
		}
	}
	return f
}

// mixedThreads is the default pinned thread count of the mixed-workload
// experiments.
const mixedThreads = 4

// mixedPart is one panel of a mixed-workload experiment: a structure at
// a (scaled) key range under one operation mix.
type mixedPart struct {
	st       Structure
	keyRange int64
	mix      Mix
}

// fig5Parts are Figure 5's read-only panels; the paper's 100K HashMap
// range is scaled to 10K, as in every mixed panel below.
var fig5Parts = []mixedPart{
	{HHSList, 1000, ReadOnly},
	{HashMap, 10000, ReadOnly},
}

// fig7Parts are Figure 7's write-heavy and mixed panels (7a–7d).
var fig7Parts = []mixedPart{
	{HList, 1000, WriteOnly},
	{HashMap, 10000, WriteOnly},
	{NMTree, 10000, ReadWrite},
	{SkipList, 10000, ReadWrite},
}

// appendixBParts is the Appendix B grid: every mix × structure at the
// small (B.1) and large (B.2) key ranges. The paper's read-only rows
// use HHSList for lists, so read-only HList and HMList are skipped.
func appendixBParts() []mixedPart {
	var out []mixedPart
	for _, large := range []bool{false, true} {
		for _, mix := range Mixes {
			for _, st := range Structures {
				if mix == ReadOnly && (st == HList || st == HMList) {
					continue
				}
				kr := int64(10000)
				if st == HList || st == HMList || st == HHSList {
					kr = 1000
				}
				if large {
					kr *= 10
				}
				out = append(out, mixedPart{st, kr, mix})
			}
		}
	}
	return out
}

// mixedRunner returns the pipeline of a mixed-workload experiment: every
// part × allocator × supported scheme at the pinned thread count.
// OpsPerSec is total ops/s.
func mixedRunner(experiment string, parts []mixedPart) func(PipelineConfig) *BenchFile {
	return func(cfg PipelineConfig) *BenchFile {
		cfg.normalize()
		f := cfg.file(experiment)
		for _, part := range parts {
			for _, al := range cfg.Allocators {
				workload := fmt.Sprintf("%s/%s/keys=%d/threads=%d", part.st, part.mix.Name, part.keyRange, cfg.Threads) + allocSuffix(al)
				for _, s := range cfg.Schemes {
					if !Supported(part.st, s) {
						continue
					}
					res := RunMixed(MixedConfig{
						Structure: part.st, Scheme: s, Threads: cfg.Threads,
						KeyRange: part.keyRange, Mix: part.mix,
						Duration: cfg.Duration, Seed: cfg.Seed,
						Config: hpbrcu.Config{Allocator: al},
					})
					f.Points = append(f.Points, resultPoint(workload, s, res.Throughput(), res))
				}
			}
		}
		return f
	}
}

// The ablation's fixed design-choice sweeps.
var (
	ablationBackupPeriods   = []int{4, 16, 64, 256, 1024}
	ablationForceThresholds = []int{1, 2, 8, 64}
	ablationBatchSizes      = []int{32, 128, 1024, 8192}
)

// BenchAblation sweeps HP-BRCU's design knobs. The checkpoint distance
// (BackupPeriod) and the neutralization budget (ForceThreshold) only
// matter under long traversals racing heavy reclamation, so they run
// the fig1 workload over 2^13 keys (OpsPerSec is reads/s). The retire
// batch (BatchSize) compares NBR and HP-BRCU on HHSList 1K write-only at
// the pinned thread count (OpsPerSec is total ops/s).
func BenchAblation(cfg PipelineConfig) *BenchFile {
	cfg.normalize()
	f := cfg.file("ablation")
	longScan := func(workload string, c hpbrcu.Config) {
		res := RunLongScan(LongScanConfig{
			Structure: HHSList, Scheme: hpbrcu.HPBRCU,
			Readers: 2, Writers: 2, KeyRange: 1 << 13,
			Duration: cfg.Duration, Seed: cfg.Seed, Config: c,
		})
		f.Points = append(f.Points, resultPoint(workload, hpbrcu.HPBRCU, res.ReadThroughput(), res.Result))
	}
	if len(onlySchemes(cfg.Schemes, hpbrcu.HPBRCU)) > 0 {
		for _, bp := range ablationBackupPeriods {
			longScan(fmt.Sprintf("backup-period=%04d/keys=2^13", bp), hpbrcu.Config{BackupPeriod: bp})
		}
		for _, ft := range ablationForceThresholds {
			longScan(fmt.Sprintf("force-threshold=%02d/keys=2^13", ft), hpbrcu.Config{ForceThreshold: ft})
		}
	}
	for _, b := range ablationBatchSizes {
		workload := fmt.Sprintf("batch=%04d/HHSList/write-only/keys=1000/threads=%d", b, cfg.Threads)
		for _, s := range onlySchemes(cfg.Schemes, hpbrcu.NBR, hpbrcu.HPBRCU) {
			res := RunMixed(MixedConfig{
				Structure: HHSList, Scheme: s, Threads: cfg.Threads,
				KeyRange: 1000, Mix: WriteOnly,
				Duration: cfg.Duration, Seed: cfg.Seed,
				Config: hpbrcu.Config{BatchSize: b},
			})
			f.Points = append(f.Points, resultPoint(workload, s, res.Throughput(), res))
		}
	}
	return f
}

// poolSizes is the default facade pool-ceiling sweep of the pool
// pipeline.
var poolSizes = []int{4, 16, 64}

// BenchPool measures the transient-goroutine facade workload: every
// operation runs in a freshly spawned goroutine through the handle-free
// facade, so the number is dominated by pooled-handle checkout cost. The
// workload column sweeps the pool ceiling — throughput should be flat
// across it at this concurrency (four spawners), so a regression in any
// column points at the pool tiers rather than the workload.
func BenchPool(cfg PipelineConfig) *BenchFile {
	cfg.normalize()
	f := cfg.file("pool")
	for _, size := range cfg.PoolSizes {
		workload := fmt.Sprintf("transient/pool=%02d/spawners=4", size)
		for _, s := range cfg.Schemes {
			if !Supported(HList, s) {
				continue
			}
			res := RunTransient(TransientConfig{
				Structure: HList, Scheme: s, PoolSize: size, Spawners: 4,
				KeyRange: 1024, Duration: cfg.Duration, Seed: cfg.Seed,
			})
			f.Points = append(f.Points, BenchPoint{
				Workload:        workload,
				Scheme:          s.String(),
				OpsPerSec:       res.Throughput(),
				PeakUnreclaimed: res.PeakUnreclaimed,
				P99CSNanos:      res.CSP99,
				Bound:           -1,
				AllocsPerOp:     res.AllocsPerOp,
				GCCPUFrac:       res.GCCPUFrac,
			})
		}
	}
	return f
}

// BenchTable2 measures the stalled-thread robustness experiment (Table 2).
// OpsPerSec is writer ops/s; Bound carries the observed §5 bound for
// HP-BRCU (and -1 for unbounded schemes), so the trajectory gate turns
// any peak-over-bound excursion into a hard failure.
func BenchTable2(cfg PipelineConfig) *BenchFile {
	cfg.normalize()
	f := cfg.file("table2")
	workload := fmt.Sprintf("stall/writers=%d/keys=%d", cfg.Writers, cfg.KeyRange)
	for _, s := range cfg.Schemes {
		res := RunStalled(StallConfig{
			Scheme: s, Writers: cfg.Writers, KeyRange: cfg.KeyRange,
			Duration: cfg.Duration, Seed: cfg.Seed,
		})
		f.Points = append(f.Points, BenchPoint{
			Workload:        workload,
			Scheme:          s.String(),
			OpsPerSec:       res.WriterThroughput(),
			PeakUnreclaimed: res.PeakUnreclaimed,
			P99CSNanos:      res.CSP99,
			Bound:           res.Bound,
			AllocsPerOp:     res.AllocsPerOp,
			GCCPUFrac:       res.GCCPUFrac,
		})
	}
	return f
}

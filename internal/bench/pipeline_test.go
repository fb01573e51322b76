package bench

import (
	"strings"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// TestMixedPartsTables pins the three parts tables over the one mixed
// runner: Figure 7's four panels, and the Appendix B grid of every mix
// × structure at both key ranges minus the read-only HList/HMList rows
// the paper replaces with HHSList.
func TestMixedPartsTables(t *testing.T) {
	want7 := []mixedPart{
		{HList, 1000, WriteOnly}, {HashMap, 10000, WriteOnly},
		{NMTree, 10000, ReadWrite}, {SkipList, 10000, ReadWrite},
	}
	if len(fig7Parts) != len(want7) {
		t.Fatalf("fig7 has %d panels, want %d", len(fig7Parts), len(want7))
	}
	for i, p := range want7 {
		if fig7Parts[i] != p {
			t.Errorf("fig7 panel %d = %+v, want %+v", i, fig7Parts[i], p)
		}
	}
	parts := appendixBParts()
	if want := 2 * (len(Mixes)*len(Structures) - 2); len(parts) != want {
		t.Fatalf("appendixB has %d parts, want %d", len(parts), want)
	}
	ranges := make(map[Structure]map[int64]bool)
	for _, p := range parts {
		if p.mix == ReadOnly && (p.st == HList || p.st == HMList) {
			t.Errorf("appendixB runs read-only %s", p.st)
		}
		if ranges[p.st] == nil {
			ranges[p.st] = make(map[int64]bool)
		}
		ranges[p.st][p.keyRange] = true
	}
	if !ranges[HList][1000] || !ranges[HList][10000] || !ranges[HashMap][10000] || !ranges[HashMap][100000] {
		t.Errorf("appendixB key ranges: %v", ranges)
	}
}

// TestBenchAblationSweeps runs the ablation at a token duration: every
// fixed sweep value produces its point, HP-BRCU alone for the long-scan
// knobs and NBR plus HP-BRCU for the batch size.
func TestBenchAblationSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke")
	}
	f := BenchAblation(PipelineConfig{Duration: 2 * time.Millisecond})
	want := len(ablationBackupPeriods) + len(ablationForceThresholds) + 2*len(ablationBatchSizes)
	if f.Experiment != "ablation" || len(f.Points) != want {
		t.Fatalf("ablation: %d points, want %d", len(f.Points), want)
	}
	for _, p := range f.Points {
		if p.OpsPerSec <= 0 {
			t.Errorf("point %s/%s did no work", p.Workload, p.Scheme)
		}
		if !strings.HasPrefix(p.Workload, "batch=") && p.Scheme != hpbrcu.HPBRCU.String() {
			t.Errorf("long-scan knob point %s ran %s", p.Workload, p.Scheme)
		}
	}
	if f := BenchAblation(PipelineConfig{Duration: time.Millisecond, Schemes: []hpbrcu.Scheme{hpbrcu.RCU}}); len(f.Points) != 0 {
		t.Fatalf("scheme filter without NBR/HP-BRCU still ran %d points", len(f.Points))
	}
}

// TestBenchServerSamplesGC pins the server's GC-pressure columns: they
// are sampled around the load window, so a point that served requests
// reports a nonzero allocation rate instead of an unsampled zero.
func TestBenchServerSamplesGC(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke")
	}
	f := BenchServer(PipelineConfig{
		Duration: 50 * time.Millisecond,
		Schemes:  []hpbrcu.Scheme{hpbrcu.HPBRCU},
		Rates:    []int{2000},
		Conns:    2,
	})
	if len(f.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(f.Points))
	}
	if p := f.Points[0]; p.OpsPerSec <= 0 || p.AllocsPerOp <= 0 {
		t.Fatalf("server point not sampled: ops/s %g, allocs/op %g", p.OpsPerSec, p.AllocsPerOp)
	}
}

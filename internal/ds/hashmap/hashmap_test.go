package hashmap

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/stats"
)

type handle interface {
	Get(key int64) (int64, bool)
	Insert(key, val int64) bool
	Remove(key int64) (int64, bool)
	Unregister()
	Barrier()
}

type variant struct {
	name     string
	register func() handle
	stats    func() *stats.Reclamation
}

func variants(buckets int) []variant {
	nr := NewNR(buckets)
	ebrM := NewEBR(buckets)
	hpM := NewHP(buckets)
	hprcu := NewHPRCU(buckets, core.Config{BackupPeriod: 4})
	hpbrcu := NewHPBRCU(buckets, core.Config{BackupPeriod: 4})
	nbrM := NewNBR(buckets)
	return []variant{
		{"NR", func() handle { return nr.Register() }, nr.Stats},
		{"EBR", func() handle { return ebrM.Register() }, ebrM.Stats},
		{"HP", func() handle { return hpM.Register() }, hpM.Stats},
		{"HP-RCU", func() handle { return hprcu.Register() }, hprcu.Stats},
		{"HP-BRCU", func() handle { return hpbrcu.Register() }, hpbrcu.Stats},
		{"NBR", func() handle { return nbrM.Register() }, nbrM.Stats},
	}
}

func TestSequentialSemantics(t *testing.T) {
	for _, v := range variants(16) {
		t.Run(v.name, func(t *testing.T) {
			h := v.register()
			defer h.Unregister()
			const n = 1000
			for i := int64(0); i < n; i++ {
				if !h.Insert(i, i*3) {
					t.Fatalf("insert %d", i)
				}
			}
			if h.Insert(500, 1) {
				t.Fatal("duplicate insert succeeded")
			}
			for i := int64(0); i < n; i++ {
				if got, ok := h.Get(i); !ok || got != i*3 {
					t.Fatalf("Get(%d) = %d,%v", i, got, ok)
				}
			}
			for i := int64(0); i < n; i += 2 {
				if val, ok := h.Remove(i); !ok || val != i*3 {
					t.Fatalf("Remove(%d) = %d,%v", i, val, ok)
				}
			}
			for i := int64(0); i < n; i++ {
				_, ok := h.Get(i)
				if want := i%2 == 1; ok != want {
					t.Fatalf("Get(%d)=%v want %v", i, ok, want)
				}
			}
		})
	}
}

func TestSingleBucketDegenerate(t *testing.T) {
	// One bucket: the map degenerates to a single list; all keys collide.
	for _, v := range variants(1) {
		t.Run(v.name, func(t *testing.T) {
			h := v.register()
			defer h.Unregister()
			for i := int64(0); i < 200; i++ {
				if !h.Insert(i, i) {
					t.Fatalf("insert %d", i)
				}
			}
			for i := int64(0); i < 200; i++ {
				if _, ok := h.Get(i); !ok {
					t.Fatalf("Get(%d) missing", i)
				}
			}
		})
	}
}

func TestConcurrentMixed(t *testing.T) {
	for _, v := range variants(32) {
		t.Run(v.name, func(t *testing.T) {
			const workers = 8
			const iters = 600
			const keyRange = 256
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					h := v.register()
					defer h.Unregister()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < iters; i++ {
						k := rng.Int63n(keyRange)
						switch rng.Intn(3) {
						case 0:
							h.Insert(k, k)
						case 1:
							h.Remove(k)
						default:
							h.Get(k)
						}
					}
				}(int64(w + 1))
			}
			wg.Wait()
		})
	}
}

func TestReclamationAcrossBuckets(t *testing.T) {
	m := NewHPBRCU(8, core.Config{})
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := m.Register()
			defer h.Unregister()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				k := rng.Int63n(128)
				if rng.Intn(2) == 0 {
					h.Insert(k, k)
				} else {
					h.Remove(k)
				}
			}
			h.Barrier()
		}(int64(w + 1))
	}
	wg.Wait()
	h := m.Register()
	for i := 0; i < 8; i++ {
		h.Barrier()
	}
	h.Unregister()
	s := m.Stats().Snapshot()
	if s.Retired == 0 {
		t.Fatal("no retires")
	}
	if s.Unreclaimed != 0 {
		t.Fatalf("unreclaimed=%d retired=%d", s.Unreclaimed, s.Retired)
	}
}

// TestHPBRCUGetZeroAllocs pins the allocation-free HP-BRCU bucket get:
// rebinding the handle to a bucket and walking it allocate nothing.
func TestHPBRCUGetZeroAllocs(t *testing.T) {
	m := NewHPBRCU(64, core.Config{})
	h := m.Register()
	defer h.Unregister()
	for k := int64(0); k < 4096; k += 2 {
		h.Insert(k, k)
	}
	k := int64(0)
	if a := testing.AllocsPerRun(1000, func() { h.Get(k % 4096); k += 7 }); a != 0 {
		t.Fatalf("Get: %v allocs/op, want 0", a)
	}
}

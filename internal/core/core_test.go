package core

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/hp"
)

type node struct {
	key  int64
	next atomicx.AtomicRef
}

// TestTwoStepRetirementTimeline replays Figure 4: T1 retires p while T2 is
// inside a critical section holding a shield on p; p survives (1) until
// the critical section ends and (2) until the shield clears, in that
// order.
func TestTwoStepRetirementTimeline(t *testing.T) {
	for _, backend := range []Backend{BackendRCU, BackendBRCU} {
		name := map[Backend]string{BackendRCU: "HP-RCU", BackendBRCU: "HP-BRCU"}[backend]
		t.Run(name, func(t *testing.T) {
			pool := alloc.NewPool[node]()
			cache := pool.NewCache()
			d := NewDomain(backend, Config{MaxLocalTasks: 1, ForceThreshold: 1 << 30, ScanThreshold: 1})
			t1 := d.Register()
			t2 := d.Register()
			defer t1.Unregister()
			defer t2.Unregister()

			slot, _ := pool.Alloc(cache)

			// T2 begins a critical section and protects p, without
			// validation (safe inside a CS, §3.2).
			t2.Pin()
			s := t2.NewShield()
			s.ProtectSlot(slot)

			// T1 retires p (two-step).
			pool.Hdr(slot).Retire()
			t1.Retire(slot, pool)

			// Step 1 pending: the critical section defers HP-Retire.
			for i := 0; i < 4; i++ {
				t1.HP.Reclaim() // HP alone cannot free it: not yet HP-retired
			}
			if pool.Hdr(slot).State() == alloc.StateFree {
				t.Fatal("freed while the critical section was live")
			}

			// T2 exits; the grace period can now elapse, moving p to the
			// HP stage — where the shield still blocks reclamation.
			t2.Unpin()
			t1.Barrier()
			if pool.Hdr(slot).State() == alloc.StateFree {
				t.Fatal("freed while a shield still protects it")
			}

			// Clearing the shield finally allows reclamation.
			s.Clear()
			t1.Barrier()
			if pool.Hdr(slot).State() != alloc.StateFree {
				t.Fatal("not freed after shield cleared and barrier")
			}
			if got := d.Stats().Snapshot(); got.Retired != 1 || got.Reclaimed != 1 || got.Unreclaimed != 0 {
				t.Fatalf("stats = %+v", got)
			}
		})
	}
}

// chain builds a singly linked chain of n nodes and returns the head slot
// and all slots.
func chain(pool *alloc.Pool[node], cache *alloc.Cache[node], n int) (uint64, []uint64) {
	slots := make([]uint64, n)
	var next atomicx.Ref
	for i := n - 1; i >= 0; i-- {
		s, nd := pool.Alloc(cache)
		nd.key = int64(i)
		nd.next.Store(next)
		next = atomicx.MakeRef(s, 0)
		slots[i] = s
	}
	return slots[0], slots
}

type chainCursor struct {
	cur atomicx.Ref
	pos int64
}

type chainProtector struct{ s *hp.Shield }

func (p *chainProtector) protect(c *chainCursor) { p.s.ProtectSlot(c.cur.Slot()) }

func (p *chainProtector) ClearProtection() { p.s.Clear() }

// chainWalk is a structure-owned traversal loop over the walk
// primitives, in the shape every data structure writes: it walks a chain
// to its tail and returns the tail's key. Hooks let a test count events
// and interfere at chosen points.
type chainWalk struct {
	pool  *alloc.Pool[node]
	head  uint64
	prots [2]chainProtector

	valid func(c *chainCursor) bool // nil: always valid
	// failAt makes the step at that position report a failed helping
	// CAS (0: never).
	failAt int64
	// beforeCommit runs between a periodic checkpoint's Protect and its
	// Commit, with the checkpoint's position.
	beforeCommit func(pos int64)

	steps, commits, enters, resumes int
	resumedAt                       []int64
}

func (cw *chainWalk) isValid(c *chainCursor) bool { return cw.valid == nil || cw.valid(c) }

func (cw *chainWalk) run(h *Handle) (c chainCursor, last int64, ok bool) {
	var (
		w    Walk
		ckpt [2]chainCursor
	)
	w.Begin(h)
	defer w.Recover("chain", &cw.prots[0], &cw.prots[1])
	for w.Enter() {
		cw.enters++
		if w.Fresh() {
			c = chainCursor{cur: atomicx.MakeRef(cw.head, 0)}
			i := w.Next()
			cw.prots[i].protect(&c)
			ckpt[i] = c
			if !w.Start() {
				continue
			}
		} else {
			c = ckpt[w.Idx()]
			cw.resumes++
			cw.resumedAt = append(cw.resumedAt, c.pos)
			if !cw.isValid(&c) {
				w.Fail()
				return c, 0, false
			}
		}
		for w.Tick() {
			cw.steps++
			if cw.failAt != 0 && c.pos == cw.failAt {
				w.Fail()
				return c, 0, false
			}
			nd := cw.pool.At(c.cur.Slot())
			if nx := nd.next.Load(); !nx.IsNil() {
				c.cur = nx
				c.pos++
				if w.Due() && cw.isValid(&c) {
					i := w.Next()
					cw.prots[i].protect(&c)
					ckpt[i] = c
					if cw.beforeCommit != nil {
						cw.beforeCommit(c.pos)
					}
					cw.commits++
					if !w.Commit() {
						break
					}
				}
				continue
			}
			i := w.Next()
			cw.prots[i].protect(&c)
			done, move := w.Finish()
			if !done {
				break
			}
			if move {
				cw.prots[1].protect(&c)
			}
			return c, nd.key, true
		}
	}
	return c, 0, false
}

// TestTraverseEngine walks a chain with both backends on the walk
// primitives, checking cursor delivery, protection of the result in
// buffer 1, checkpoint cadence, and Fail propagation.
func TestTraverseEngine(t *testing.T) {
	for _, backend := range []Backend{BackendRCU, BackendBRCU} {
		name := map[Backend]string{BackendRCU: "HP-RCU", BackendBRCU: "HP-BRCU"}[backend]
		t.Run(name, func(t *testing.T) {
			pool := alloc.NewPool[node]()
			cache := pool.NewCache()
			const n, period = 1000, 16
			head, slots := chain(pool, cache, n)

			d := NewDomain(backend, Config{BackupPeriod: period})
			h := d.Register()
			defer h.Unregister()

			validations := 0
			cw := &chainWalk{
				pool: pool, head: head,
				prots: [2]chainProtector{{s: h.NewShield()}, {s: h.NewShield()}},
				valid: func(*chainCursor) bool { validations++; return true },
			}
			c, last, ok := cw.run(h)
			if !ok {
				t.Fatal("walk failed")
			}
			if last != n-1 {
				t.Fatalf("final key = %d, want %d", last, n-1)
			}
			if c.cur.Slot() != slots[n-1] {
				t.Fatal("cursor does not point at the tail")
			}
			if cw.prots[1].s.Get() != slots[n-1] {
				t.Fatal("final cursor not protected in buffer 1")
			}
			if cw.steps != n {
				t.Fatalf("steps = %d, want %d", cw.steps, n)
			}
			// One checkpoint per full period of advances; HP-RCU ends a
			// phase at each and resumes (revalidating) in the next.
			if want := (n - 1) / period; cw.commits != want {
				t.Fatalf("commits = %d, want %d", cw.commits, want)
			}
			wantResumes := 0
			if backend == BackendRCU {
				wantResumes = cw.commits
			}
			if cw.resumes != wantResumes || cw.enters != 1+wantResumes {
				t.Fatalf("enters/resumes = %d/%d, want %d/%d", cw.enters, cw.resumes, 1+wantResumes, wantResumes)
			}
			if validations != cw.commits+cw.resumes {
				t.Fatalf("validations = %d, want %d", validations, cw.commits+cw.resumes)
			}
			if got := d.Stats().Rollbacks.Load(); got != 0 {
				t.Fatalf("rollbacks = %d on an uncontended walk", got)
			}

			// Fail propagation.
			cw.failAt = 100
			if _, _, ok := cw.run(h); ok {
				t.Fatal("a failed step must make the walk return not-ok")
			}
			// The failed walk closed its section: the handle is reusable.
			cw.failAt = 0
			if _, last, ok := cw.run(h); !ok || last != n-1 {
				t.Fatalf("walk after a failure = (%d,%v)", last, ok)
			}
		})
	}
}

// TestTraverseDoubleBuffer forces a neutralization between a periodic
// checkpoint's Protect and its Commit — the §4.3 double-buffer window —
// and checks that the walk resumes from the previous complete checkpoint
// while the buffer holding it kept its protection throughout.
func TestTraverseDoubleBuffer(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	const n, period = 200, 8
	head, slots := chain(pool, cache, n)

	d := NewDomain(BackendBRCU, Config{BackupPeriod: period})
	h := d.Register()
	defer h.Unregister()

	cw := &chainWalk{
		pool: pool, head: head,
		prots: [2]chainProtector{{s: h.NewShield()}, {s: h.NewShield()}},
	}
	fired := false
	cw.beforeCommit = func(pos int64) {
		if pos != 5*period || fired {
			return
		}
		fired = true
		// The checkpoint at 5·period is protected but not committed; the
		// one at 4·period must still be protected by the other buffer.
		held := map[uint64]bool{cw.prots[0].s.Get(): true, cw.prots[1].s.Get(): true}
		if !held[slots[4*period]] || !held[slots[5*period]] {
			t.Errorf("buffers hold %v, want the checkpoints at %d and %d", held, 4*period, 5*period)
		}
		if !h.brcu.SelfNeutralize() {
			t.Error("SelfNeutralize planted no request")
		}
	}
	_, last, ok := cw.run(h)
	if !ok || last != n-1 {
		t.Fatalf("walk = (%d,%v), want (%d,true)", last, ok, n-1)
	}
	if !fired {
		t.Fatal("the double-buffer window was never reached")
	}
	if len(cw.resumedAt) != 1 || cw.resumedAt[0] != 4*period {
		t.Fatalf("resumed at %v, want [%d]", cw.resumedAt, 4*period)
	}
	if got := d.Stats().Rollbacks.Load(); got != 1 {
		t.Fatalf("rollbacks = %d, want 1", got)
	}
}

// TestTraverseValidateGate checks the checkpoint-postponement logic: a
// cursor that never validates must still finish (checkpoints are skipped,
// not fatal) under the RCU backend.
func TestTraverseValidateGate(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	const n = 300
	head, _ := chain(pool, cache, n)

	d := NewDomain(BackendRCU, Config{BackupPeriod: 4})
	h := d.Register()
	defer h.Unregister()
	cw := &chainWalk{
		pool: pool, head: head,
		prots: [2]chainProtector{{s: h.NewShield()}, {s: h.NewShield()}},
		valid: func(*chainCursor) bool { return false }, // never checkpointable
	}
	_, last, ok := cw.run(h)
	if !ok || last != n-1 {
		t.Fatalf("got (%d,%v), want (%d,true)", last, ok, n-1)
	}
	if cw.commits != 0 || cw.enters != 1 {
		t.Fatalf("commits/enters = %d/%d, want 0/1: every checkpoint must be postponed", cw.commits, cw.enters)
	}
}

// TestMaskPassthroughRCU: under the RCU backend Mask simply runs the body.
func TestMaskPassthroughRCU(t *testing.T) {
	d := NewDomain(BackendRCU, Config{})
	h := d.Register()
	defer h.Unregister()
	ran := false
	gotRan, rb := h.Mask(func() { ran = true })
	if !ran || !gotRan || rb {
		t.Fatalf("Mask under RCU: ran=%v gotRan=%v rb=%v", ran, gotRan, rb)
	}
}

// TestGarbageBoundAccessors checks the §5 bound plumbing.
func TestGarbageBoundAccessors(t *testing.T) {
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 10, ForceThreshold: 3})
	a := d.Register()
	b := d.Register()
	defer a.Unregister()
	defer b.Unregister()
	// G = 30, N = 2: 2GN + GN² = 120 + 120 = 240, +5 shields.
	if got := d.GarbageBound(5); got != 245 {
		t.Fatalf("bound = %d, want 245", got)
	}
	if got := NewDomain(BackendRCU, Config{}).GarbageBound(5); got != -1 {
		t.Fatalf("RCU bound = %d, want -1", got)
	}
	if got := d.GarbageBoundFor(4, 0); got != 2*30*4+30*16 {
		t.Fatalf("boundFor(4) = %d", got)
	}
}

package core

import (
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/reap"
)

// fastReaper starts a reaper with timings sized for a unit test rather
// than production (milliseconds, not hundreds of them).
func fastReaper(d *Domain) *Reaper {
	return d.StartReaper(ReaperConfig{
		LeaseTimeout: 10 * time.Millisecond,
		Interval:     time.Millisecond,
		Grace:        2 * time.Millisecond,
	})
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReaperRecoversLeakedHandle is the end-to-end leak story: a worker
// retires nodes into its private batch and dies without Unregister; the
// reaper adopts the batch and the shield protections, and the books
// balance without any cooperation from the dead owner.
func TestReaperRecoversLeakedHandle(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 1024, ScanThreshold: 1024, ForceThreshold: 2})
	rp := fastReaper(d)
	defer rp.Stop()

	// The "leaked" goroutine's handle: a held shield and a batch of
	// deferred retires, then silence.
	leaked := d.Register()
	s := leaked.NewShield()
	for i := 0; i < 16; i++ {
		slot, _ := pool.Alloc(cache)
		if i == 0 {
			s.ProtectSlot(slot)
		}
		pool.Hdr(slot).Retire()
		leaked.Retire(slot, pool)
	}
	rec := d.Stats()
	if got := rec.Unreclaimed.Load(); got != 16 {
		t.Fatalf("unreclaimed = %d before the leak, want 16", got)
	}

	waitFor(t, "the leaked handle to be reaped", func() bool {
		return rec.ReapedHandles.Load() >= 1
	})
	waitFor(t, "the adopted garbage to drain", func() bool {
		return rec.Unreclaimed.Load() == 0
	})
	if got := rec.AdoptedNodes.Load(); got != 16 {
		t.Fatalf("adopted nodes = %d, want 16", got)
	}
	if s.Get() != 0 {
		t.Fatal("the dead handle's shield still protects")
	}
}

// TestReaperFreesLateUnprotected: the reaper's drain moves a dead
// handle's garbage onto its own handle, where a node another thread still
// protects has to wait. When that protection clears after every reap is
// over, the reaper must still free the node — nobody else will ever scan
// its handle's retired list again.
func TestReaperFreesLateUnprotected(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 1024, ScanThreshold: 1024, ForceThreshold: 2})
	rp := fastReaper(d)
	defer rp.Stop()

	// A live (exempt, so never reaped) thread protects the node the dead
	// one retires.
	live := d.RegisterService()
	defer live.Unregister()
	s := live.NewShield()
	leaked := d.Register()
	slot, _ := pool.Alloc(cache)
	s.ProtectSlot(slot)
	pool.Hdr(slot).Retire()
	leaked.Retire(slot, pool)

	rec := d.Stats()
	waitFor(t, "the leaked handle to be reaped", func() bool {
		return rec.ReapedHandles.Load() >= 1
	})
	// Many ticks pass with the node protected: the post-reap drain moves
	// it onto the reaper's handle, and the cleanup rounds that follow see
	// no progress and stop.
	time.Sleep(50 * time.Millisecond)
	if got := rec.Unreclaimed.Load(); got != 1 {
		t.Fatalf("unreclaimed = %d while protected, want 1", got)
	}
	s.Clear()
	waitFor(t, "the node to be freed once unprotected", func() bool {
		return rec.Unreclaimed.Load() == 0
	})
}

// TestReaperResurrection: the owner was slow, not dead. After the reap it
// wakes, resurrects transparently on its next Pin, and keeps working; the
// final books still balance.
func TestReaperResurrection(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 1024, ScanThreshold: 1024, ForceThreshold: 2})
	rp := fastReaper(d)
	defer rp.Stop()

	h := d.Register()
	slot, _ := pool.Alloc(cache)
	pool.Hdr(slot).Retire()
	h.Retire(slot, pool)

	rec := d.Stats()
	waitFor(t, "the idle handle to be reaped", func() bool {
		return rec.ReapedHandles.Load() >= 1
	})

	// The owner comes back: Pin resolves the Reaped phase by
	// re-registering both halves.
	h.Pin()
	h.Unpin()
	if got := len(d.members.Snapshot()); got != 2 { // the worker + the reaper's drain handle
		t.Fatalf("domain has %d members after resurrection, want 2", got)
	}

	// And it keeps working: another retire, then a clean shutdown.
	slot2, _ := pool.Alloc(cache)
	pool.Hdr(slot2).Retire()
	h.Retire(slot2, pool)
	h.Barrier()
	h.Unregister()
	waitFor(t, "the books to balance after resurrection", func() bool {
		return rec.Unreclaimed.Load() == 0
	})
}

// TestEmergencyDrainBoundsGarbage: with backpressure on, the retire path
// drains inline once unreclaimed garbage crosses the drain tier, so the
// peak stays at the ceiling even though the batch would hold far more.
func TestEmergencyDrainBoundsGarbage(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 1 << 20, ScanThreshold: 1 << 20, ForceThreshold: 2})
	bp := d.EnableBackpressure(reap.BackpressureConfig{Ceiling: 8})
	if bp == nil {
		t.Fatal("EnableBackpressure returned nil for a BRCU domain")
	}

	h := d.Register()
	defer h.Unregister()
	for i := 0; i < 200; i++ {
		slot, _ := pool.Alloc(cache)
		pool.Hdr(slot).Retire()
		h.Retire(slot, pool)
	}
	h.Barrier()

	rec := d.Stats()
	if peak := rec.Unreclaimed.Peak(); peak > 8 {
		t.Fatalf("peak unreclaimed = %d, exceeded the ceiling 8", peak)
	}
	if got := rec.Unreclaimed.Load(); got != 0 {
		t.Fatalf("unreclaimed = %d after barrier, want 0", got)
	}
}

func TestBackpressureNilForRCU(t *testing.T) {
	d := NewDomain(BackendRCU, Config{})
	if rp := d.StartReaper(ReaperConfig{}); rp != nil {
		t.Fatal("StartReaper must be a no-op on an RCU-backed domain")
	}
}

package hmlist

import (
	"runtime"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/lnode"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Expedited is a Harris-Michael list protected by HP-RCU or HP-BRCU
// (Algorithm 8): traversal follows links inside (bounded) RCU critical
// sections with periodic HP checkpoints, and the physical deletion of
// marked nodes — the write that defeats NBR — runs inside an abort-masked
// region.
type Expedited struct {
	*lnode.List
	dom *core.Domain
}

// NewHPRCU creates a list protected by HP-RCU (§3).
func NewHPRCU(cfg core.Config) *Expedited {
	l := &Expedited{List: lnode.New(cfg.Allocator), dom: core.NewDomain(core.BackendRCU, cfg)}
	l.dom.BindPool(l.List.Pool)
	return l
}

// NewHPBRCU creates a list protected by HP-BRCU (§4).
func NewHPBRCU(cfg core.Config) *Expedited {
	l := &Expedited{List: lnode.New(cfg.Allocator), dom: core.NewDomain(core.BackendBRCU, cfg)}
	l.dom.BindPool(l.List.Pool)
	return l
}

// Stats exposes reclamation statistics.
func (l *Expedited) Stats() *stats.Reclamation { return l.dom.Stats() }

// Domain exposes the underlying HP-(B)RCU domain (for bound checks).
func (l *Expedited) Domain() *core.Domain { return l.dom }

// cursor is the traversal cursor (Algorithm 8's ListCursor): the
// predecessor slot and the untagged current reference.
type cursor struct {
	prev uint64
	cur  atomicx.Ref
}

// protector checkpoints a cursor into two shields (Algorithm 8's
// ListCursorProtector). A handle owns two (the §4.3 double buffer);
// index 1 holds a finished search's result.
type protector struct {
	prevS, curS *hp.Shield
}

func newProtector(h *core.Handle) protector {
	return protector{prevS: h.NewShield(), curS: h.NewShield()}
}

func (p *protector) protect(c *cursor) {
	p.prevS.ProtectSlot(c.prev)
	p.curS.Protect(c.cur)
}

// ClearProtection releases both shields (core.ProtectionClearer); the
// recover barrier calls it when a panic abandons a traversal.
func (p *protector) ClearProtection() {
	p.prevS.Clear()
	p.curS.Clear()
}

// ExpeditedHandle is one thread's accessor.
type ExpeditedHandle struct {
	l     *Expedited
	h     *core.Handle
	cache *alloc.Cache[lnode.Node]

	prots               [2]protector
	maskPrevS, maskCurS *hp.Shield
}

// Register creates a thread handle.
func (l *Expedited) Register() *ExpeditedHandle {
	h := l.dom.Register()
	return &ExpeditedHandle{
		l: l, h: h, cache: l.Pool.NewCache(),
		prots:     [2]protector{newProtector(h), newProtector(h)},
		maskPrevS: h.NewShield(),
		maskCurS:  h.NewShield(),
	}
}

// Unregister releases the handle.
func (h *ExpeditedHandle) Unregister() {
	h.prots[0].ClearProtection()
	h.prots[1].ClearProtection()
	h.maskPrevS.Clear()
	h.maskCurS.Clear()
	h.h.Unregister()
}

// Barrier drains reclamation (teardown/tests).
func (h *ExpeditedHandle) Barrier() { h.h.Barrier() }

// Core exposes the composed HP-(B)RCU participation record, so the
// lifecycle layer (handle pool, reaper integration) can reach the lease
// and reap state of the handle it wraps.
func (h *ExpeditedHandle) Core() *core.Handle { return h.h }

// valid reports whether a checkpointed cursor can be resumed from: cur
// is not logically deleted (§3.3). A nil cur cannot be marked, so the
// tail cursor checks its predecessor.
func valid(l *lnode.List, c *cursor) bool {
	if c.cur.IsNil() {
		return l.Pool.At(c.prev).Next.Load().Tag() == 0
	}
	return l.At(c.cur).Next.Load().Tag() == 0
}

// search runs the expedited traversal (Algorithm 8's TrySearch) on the
// walk primitives: it returns the position of key, protected by
// prots[1]. ok is false when the operation must be retried (failed
// revalidation or helping CAS).
func (h *ExpeditedHandle) search(key int64) (cursor, bool, bool) {
	l := h.l.List
	var (
		w    core.Walk
		c    cursor
		ckpt [2]cursor
	)
	w.Begin(h.h)
	defer w.Recover("search", &h.prots[0], &h.prots[1])
	for w.Enter() {
		if w.Fresh() {
			c = cursor{prev: l.Head, cur: l.Pool.At(l.Head).Next.Load()}
			i := w.Next()
			h.prots[i].protect(&c)
			ckpt[i] = c
			if !w.Start() {
				continue
			}
		} else if c = ckpt[w.Idx()]; !valid(l, &c) {
			w.Fail()
			return c, false, false
		}
		for w.Tick() {
			done, hit := c.cur.IsNil(), false
			if !done {
				curN := l.At(c.cur)
				next := curN.Next.Load()
				if next.Tag() != 0 {
					// Physical deletion is rollback-safe but not
					// abort-rollback-safe (it retires); run it masked
					// with the operands protected by outliving shields
					// (Algorithm 8 lines 23-27).
					next = next.Untagged()
					h.maskPrevS.ProtectSlot(c.prev)
					h.maskCurS.Protect(c.cur)
					prev, cur := c.prev, c.cur
					succ := false
					ran, mustRollback := h.h.Mask(func() {
						if l.Pool.At(prev).Next.CompareAndSwap(cur, next) {
							l.Pool.Hdr(cur.Slot()).Retire()
							h.h.Retire(cur.Slot(), l.Pool)
							succ = true
						}
					})
					if mustRollback {
						break
					}
					if !ran || !succ {
						w.Fail()
						return c, false, false
					}
					c.cur = next
				} else if k := curN.Key.Load(); k < key {
					c.prev = c.cur.Slot()
					c.cur = next
				} else {
					done, hit = true, k == key
				}
			}
			if done {
				i := w.Next()
				h.prots[i].protect(&c)
				ok, move := w.Finish()
				if !ok {
					break
				}
				if move {
					h.prots[1].protect(&c)
				}
				return c, hit, true
			}
			if w.Due() && valid(l, &c) {
				i := w.Next()
				h.prots[i].protect(&c)
				ckpt[i] = c
				if !w.Commit() {
					break
				}
			}
		}
	}
	return c, false, false // unreachable: a search is never cancellable
}

// Get returns the value mapped to key.
func (h *ExpeditedHandle) Get(key int64) (int64, bool) {
	for attempt := 0; ; attempt++ {
		c, found, ok := h.search(key)
		if !ok {
			if attempt > 0 {
				runtime.Gosched() // break single-CPU retry ping-pongs
			}
			continue // rare: revalidation or helping failed (§4.3)
		}
		if !found {
			return 0, false
		}
		return h.l.At(c.cur).Val.Load(), true
	}
}

// Insert maps key to val; it fails if key is already present. The
// publishing CAS runs outside the critical section on HP-protected nodes,
// exactly as with plain hazard pointers.
func (h *ExpeditedHandle) Insert(key, val int64) bool {
	l := h.l.List
	var newSlot uint64
	var newRef atomicx.Ref
	for attempt := 0; ; attempt++ {
		c, found, ok := h.search(key)
		if !ok {
			if attempt > 0 {
				runtime.Gosched()
			}
			continue
		}
		if found {
			if newSlot != 0 {
				l.Discard(h.cache, newSlot)
			}
			return false
		}
		if newSlot == 0 {
			newSlot, newRef = l.NewNode(h.cache, key, val, c.cur)
		} else {
			l.Pool.At(newSlot).Next.Store(c.cur)
		}
		if l.Pool.At(c.prev).Next.CompareAndSwap(c.cur, newRef) {
			return true
		}
	}
}

// Remove unmaps key, returning the removed value.
func (h *ExpeditedHandle) Remove(key int64) (int64, bool) {
	l := h.l.List
	for attempt := 0; ; attempt++ {
		c, found, ok := h.search(key)
		if !ok {
			if attempt > 0 {
				runtime.Gosched()
			}
			continue
		}
		if !found {
			return 0, false
		}
		curN := l.At(c.cur)
		next := curN.Next.Load()
		if next.Tag() != 0 {
			continue // concurrently removed; re-find
		}
		val := curN.Val.Load()
		if !curN.Next.CompareAndSwap(next, next.WithTag(lnode.MarkBit)) {
			continue
		}
		// Physical deletion outside the critical section: prev and cur
		// are HP-protected by prot, so this is plain HP territory;
		// Retire (two-step) is legal outside critical sections.
		if l.Pool.At(c.prev).Next.CompareAndSwap(c.cur, next) {
			l.Pool.Hdr(c.cur.Slot()).Retire()
			h.h.Retire(c.cur.Slot(), l.Pool)
		}
		return val, true
	}
}

package hlist

import (
	"context"
	"runtime"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/lnode"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Expedited is a Harris list protected by HP-RCU or HP-BRCU. This is the
// combination plain HP cannot express (Figure 2): traversal follows links
// out of marked — possibly retired — nodes, protected coarsely by the
// critical section, with run excision in an abort-masked region.
type Expedited struct {
	List *lnode.List
	dom  *core.Domain
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

// NewExpeditedFrom wraps an existing list core and domain (shared buckets).
func NewExpeditedFrom(lst *lnode.List, dom *core.Domain) *Expedited {
	return &Expedited{List: lst, dom: dom}
}

// Rebind points the handle at another list sharing the same domain and
// pool (bucket switching); the shields and caches are reused.
func (h *ExpeditedHandle) Rebind(l *Expedited) { h.l = l }

// Stats exposes reclamation statistics.
func (l *Expedited) Stats() *stats.Reclamation { return l.dom.Stats() }

// Domain exposes the underlying HP-(B)RCU domain.
func (l *Expedited) Domain() *core.Domain { return l.dom }

// LenSlow and KeysSlow delegate to the core (tests only).
func (l *Expedited) LenSlow() int      { return l.List.LenSlow() }
func (l *Expedited) KeysSlow() []int64 { return l.List.KeysSlow() }

// cursor is the search cursor: predecessor slot + current reference.
type cursor struct {
	prev uint64
	cur  atomicx.Ref
}

// protector checkpoints a search cursor into two shields. A handle owns
// two (the §4.3 double buffer); index 1 holds a finished search's result.
type protector struct{ prevS, curS *hp.Shield }

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

// getCursor is the read-only optimistic traversal cursor (HHS get).
type getCursor struct{ cur atomicx.Ref }

type getProtector struct{ curS *hp.Shield }

func (p *getProtector) protect(c *getCursor) { p.curS.Protect(c.cur) }

// ClearProtection releases the shield (core.ProtectionClearer).
func (p *getProtector) ClearProtection() { p.curS.Clear() }

// ExpeditedHandle is one thread's accessor.
type ExpeditedHandle struct {
	l     *Expedited
	h     *core.Handle
	cache *alloc.Cache[lnode.Node]

	prots     [2]protector
	getProts  [2]getProtector
	maskPrevS *hp.Shield
	maskRunS  *hp.Shield
	maskEndS  *hp.Shield
	run       runBuf
}

// Register creates a thread handle.
func (l *Expedited) Register() *ExpeditedHandle {
	h := l.dom.Register()
	return &ExpeditedHandle{
		l: l, h: h, cache: l.List.Pool.NewCache(),
		prots:     [2]protector{newProtector(h), newProtector(h)},
		getProts:  [2]getProtector{{curS: h.NewShield()}, {curS: h.NewShield()}},
		maskPrevS: h.NewShield(),
		maskRunS:  h.NewShield(),
		maskEndS:  h.NewShield(),
	}
}

// Unregister releases the handle.
func (h *ExpeditedHandle) Unregister() { h.h.Unregister() }

// Core exposes the composed HP-(B)RCU participation record, so the
// lifecycle layer (handle pool, reaper integration) can reach the lease
// and reap state of the handle it wraps.
func (h *ExpeditedHandle) Core() *core.Handle { return h.h }

// Barrier drains reclamation (teardown/tests).
func (h *ExpeditedHandle) Barrier() { h.h.Barrier() }

// valid reports whether a checkpointed search cursor can be resumed
// from: its current node (or, at the tail, its predecessor) is not
// logically deleted (§3.3).
func valid(l *lnode.List, c *cursor) bool {
	if c.cur.IsNil() {
		return l.Pool.At(c.prev).Next.Load().Tag() == 0
	}
	return l.At(c.cur).Next.Load().Tag() == 0
}

// search runs the expedited Harris search on the walk primitives and
// returns the cursor at key, protected by prots[1]. Marked runs are
// excised inside an abort-masked region; the excision operands —
// predecessor, run head, and excision target — are protected by
// outliving shields beforehand so the masked CAS can never act on
// recycled slots (the ABA guard the paper notes in footnote 6). ok is
// false when the operation must be retried (failed revalidation or
// helping CAS).
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
				next := l.At(c.cur).Next.Load()
				if next.Tag() != 0 {
					// Excise the marked run [cur, end). The run is
					// captured into a buffer before the masked writes
					// so retirement never re-reads a link after a
					// retire.
					end := runEnd(l, c.cur, &h.run)
					h.maskPrevS.ProtectSlot(c.prev)
					h.maskRunS.Protect(c.cur)
					h.maskEndS.Protect(end)
					prev, cur := c.prev, c.cur
					succ := false
					ran, mustRollback := h.h.Mask(func() {
						if l.Pool.At(prev).Next.CompareAndSwap(cur, end) {
							retireRun(l, &h.run, func(slot uint64) { h.h.Retire(slot, l.Pool) })
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
					c.cur = end
				} else if k := l.At(c.cur).Key.Load(); k < key {
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

// Get returns the value mapped to key (full Harris search, helps excise).
func (h *ExpeditedHandle) Get(key int64) (int64, bool) {
	for attempt := 0; ; attempt++ {
		c, found, ok := h.search(key)
		if !ok {
			if attempt > 0 {
				runtime.Gosched() // break single-CPU retry ping-pongs
			}
			continue
		}
		if !found {
			return 0, false
		}
		return h.l.List.At(c.cur).Val.Load(), true
	}
}

// getValid is valid for the optimistic read cursor.
func getValid(l *lnode.List, c *getCursor) bool {
	return c.cur.IsNil() || l.At(c.cur).Next.Load().Tag() == 0
}

// walkGet is one optimistic read traversal on the walk primitives: a
// pure read through marked nodes, so a step never writes. A nil ctx
// makes it uncancellable; otherwise err reports cancellation. ok is
// false when a resumed checkpoint failed revalidation.
func (h *ExpeditedHandle) walkGet(ctx context.Context, key int64) (getCursor, bool, bool, error) {
	l := h.l.List
	var (
		w    core.Walk
		c    getCursor
		ckpt [2]getCursor
	)
	if ctx == nil {
		w.Begin(h.h)
	} else if err := w.BeginCtx(ctx, h.h); err != nil {
		return c, false, false, err
	}
	defer w.Recover("GetOptimistic", &h.getProts[0], &h.getProts[1])
	defer w.End()
	for w.Enter() {
		if w.Fresh() {
			c = getCursor{cur: l.Pool.At(l.Head).Next.Load().Untagged()}
			i := w.Next()
			h.getProts[i].protect(&c)
			ckpt[i] = c
			if !w.Start() {
				continue
			}
		} else if c = ckpt[w.Idx()]; !getValid(l, &c) {
			w.Fail()
			return c, false, false, nil
		}
		for w.Tick() {
			done, hit := c.cur.IsNil(), false
			if !done {
				n := l.At(c.cur)
				if k := n.Key.Load(); k < key {
					c.cur = n.Next.Load().Untagged()
				} else {
					done, hit = true, k == key && n.Next.Load().Tag() == 0
				}
			}
			if done {
				i := w.Next()
				h.getProts[i].protect(&c)
				ok, move := w.Finish()
				if !ok {
					break
				}
				if move {
					h.getProts[1].protect(&c)
				}
				return c, hit, true, nil
			}
			if w.Due() && getValid(l, &c) {
				i := w.Next()
				h.getProts[i].protect(&c)
				ckpt[i] = c
				if !w.Commit() {
					break
				}
			}
		}
	}
	return c, false, false, w.Err()
}

// GetOptimistic is the HHSList wait-free-style contains lifted onto the
// walk primitives: a pure read traversal through marked nodes. Under
// HP-BRCU it is only lock-free (rollbacks may retry it), matching the
// paper's footnote 9.
func (h *ExpeditedHandle) GetOptimistic(key int64) (int64, bool) {
	v, found, _ := h.get(nil, key)
	return v, found
}

// GetCtx is GetOptimistic with cooperative cancellation: ctx.Done()
// self-neutralizes the traversal at its next poll point and GetCtx
// returns the context's error. Validation failures still retry — only
// cancellation breaks the loop.
func (h *ExpeditedHandle) GetCtx(ctx context.Context, key int64) (int64, bool, error) {
	return h.get(ctx, key)
}

// get retries walkGet until it completes or (non-nil ctx) is cancelled.
func (h *ExpeditedHandle) get(ctx context.Context, key int64) (int64, bool, error) {
	for attempt := 0; ; attempt++ {
		c, found, ok, err := h.walkGet(ctx, key)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			if attempt > 0 {
				runtime.Gosched()
			}
			continue // checkpointed on a node that got marked; rare
		}
		if !found {
			return 0, false, nil
		}
		return h.l.List.At(c.cur).Val.Load(), true, nil
	}
}

// BarrierCtx is Barrier with cooperative cancellation between rounds.
func (h *ExpeditedHandle) BarrierCtx(ctx context.Context) error { return h.h.BarrierCtx(ctx) }

// Insert maps key to val; it fails if key is already present.
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

// Remove unmaps key: logical deletion outside the critical section on the
// HP-protected cursor, then best-effort physical excision.
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
			continue
		}
		val := curN.Val.Load()
		if !curN.Next.CompareAndSwap(next, next.WithTag(lnode.MarkBit)) {
			continue
		}
		if l.Pool.At(c.prev).Next.CompareAndSwap(c.cur, next) {
			l.Pool.Hdr(c.cur.Slot()).Retire()
			h.h.Retire(c.cur.Slot(), l.Pool)
		}
		return val, true
	}
}

package nmtree

import (
	"runtime"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Expedited is a Natarajan-Mittal tree protected by HP-RCU or HP-BRCU.
// The seek is pure, so the whole descent runs in critical sections with
// the seek record checkpointed into four shields at the end; all writes
// (injection, tagging, splicing, retirement) run outside the critical
// section on the protected record, exactly like plain HP would — except
// that plain HP could never have traversed to the record safely.
//
// Revalidation (§3.3) for a mid-path checkpoint re-reads the recorded
// parent→leaf edge: marks (flag/tag) are set before any splice and never
// cleared from a field value, so observing the edge clean and unchanged
// proves the parent was not yet spliced out — the tree's analogue of the
// lists' logical-deletion check.
type Expedited struct {
	t   *tree
	dom *core.Domain
}

// NewHPRCU creates a tree protected by HP-RCU (§3).
func NewHPRCU(cfg core.Config) *Expedited {
	e := &Expedited{t: newTree(cfg.Allocator), dom: core.NewDomain(core.BackendRCU, cfg)}
	e.dom.BindPool(e.t.pool)
	return e
}

// NewHPBRCU creates a tree protected by HP-BRCU (§4).
func NewHPBRCU(cfg core.Config) *Expedited {
	e := &Expedited{t: newTree(cfg.Allocator), dom: core.NewDomain(core.BackendBRCU, cfg)}
	e.dom.BindPool(e.t.pool)
	return e
}

// Stats exposes reclamation statistics.
func (l *Expedited) Stats() *stats.Reclamation { return l.dom.Stats() }

// Domain exposes the underlying HP-(B)RCU domain.
func (l *Expedited) Domain() *core.Domain { return l.dom }

// LenSlow and KeysSlow are single-threaded structural checks.
func (l *Expedited) LenSlow() int      { return l.t.lenSlow() }
func (l *Expedited) KeysSlow() []int64 { return l.t.keysSlow() }

// treeProtector checkpoints a seek cursor into four shields. A handle
// owns two (the §4.3 double buffer); index 1 holds a finished seek's
// record.
type treeProtector struct {
	ancS, sucS, parS, leafS *hp.Shield
}

func newTreeProtector(h *core.Handle) treeProtector {
	return treeProtector{
		ancS: h.NewShield(), sucS: h.NewShield(),
		parS: h.NewShield(), leafS: h.NewShield(),
	}
}

func (p *treeProtector) protect(c *seekCursor) {
	p.ancS.ProtectSlot(c.sr.ancestor)
	p.sucS.ProtectSlot(c.sr.successor)
	p.parS.ProtectSlot(c.sr.parent)
	p.leafS.ProtectSlot(c.sr.leaf)
}

// ClearProtection releases every shield (core.ProtectionClearer); the
// recover barrier calls it when a panic abandons a traversal.
func (p *treeProtector) ClearProtection() {
	p.ancS.Clear()
	p.sucS.Clear()
	p.parS.Clear()
	p.leafS.Clear()
}

// ExpeditedHandle is one thread's accessor.
type ExpeditedHandle struct {
	l     *Expedited
	h     *core.Handle
	cache *alloc.Cache[node]

	prots [2]treeProtector
}

// Register creates a thread handle.
func (l *Expedited) Register() *ExpeditedHandle {
	h := l.dom.Register()
	return &ExpeditedHandle{
		l: l, h: h, cache: l.t.pool.NewCache(),
		prots: [2]treeProtector{newTreeProtector(h), newTreeProtector(h)},
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

func (h *ExpeditedHandle) retire(slot uint64) { h.h.Retire(slot, h.l.t.pool) }

// valid reports whether a checkpointed seek cursor can be resumed from.
// The parent is certainly not retired if its key-side edge is still the
// clean edge we descended: any splice of parent is preceded by marking
// that edge (flag or tag), and marks are never removed from a field
// value.
func (t *tree) valid(key int64, c *seekCursor) bool {
	if c.sr.parent == t.root {
		return true // initial cursor: resuming from the root
	}
	e := t.childEdge(t.pool.At(c.sr.parent), key).Load()
	return e == c.leafEdge && e.Tag() == 0
}

// trySeek runs one descent on the walk primitives and returns the seek
// record, protected by prots[1]. The seek is pure, so a step never
// writes; ok is false when a rollback invalidated a mid-path checkpoint.
func (h *ExpeditedHandle) trySeek(key int64) (seekRecord, bool) {
	t := h.l.t
	var (
		w    core.Walk
		c    seekCursor
		ckpt [2]seekCursor
	)
	w.Begin(h.h)
	defer w.Recover("seek", &h.prots[0], &h.prots[1])
	for w.Enter() {
		if w.Fresh() {
			c = t.seekInit()
			i := w.Next()
			h.prots[i].protect(&c)
			ckpt[i] = c
			if !w.Start() {
				continue
			}
		} else if c = ckpt[w.Idx()]; !t.valid(key, &c) {
			w.Fail()
			return c.sr, false
		}
		for w.Tick() {
			if next := t.seekEdge(key, &c); !next.IsNil() {
				c.advance(next)
				if w.Due() && t.valid(key, &c) {
					i := w.Next()
					h.prots[i].protect(&c)
					ckpt[i] = c
					if !w.Commit() {
						break
					}
				}
				continue
			}
			i := w.Next()
			h.prots[i].protect(&c)
			done, move := w.Finish()
			if !done {
				break
			}
			if move {
				h.prots[1].protect(&c)
			}
			return c.sr, true
		}
	}
	return c.sr, false // unreachable: a seek is never cancellable
}

// seek retries trySeek until it returns a protected seek record.
func (h *ExpeditedHandle) seek(key int64) seekRecord {
	for attempt := 0; ; attempt++ {
		if sr, ok := h.trySeek(key); ok {
			return sr
		}
		// Rollback invalidated a mid-path checkpoint: restart the seek.
		if attempt > 0 {
			runtime.Gosched()
		}
	}
}

// Get returns the value mapped to key.
func (h *ExpeditedHandle) Get(key int64) (int64, bool) {
	sr := h.seek(key)
	leaf := h.l.t.pool.At(sr.leaf)
	if leaf.Key.Load() != key {
		return 0, false
	}
	return leaf.Val.Load(), true
}

// Insert maps key to val; it fails if key is already present.
func (h *ExpeditedHandle) Insert(key, val int64) bool {
	t := h.l.t
	for {
		sr := h.seek(key)
		if t.pool.At(sr.leaf).Key.Load() == key {
			return false
		}
		internal := t.newLeafAndInternal(h.cache, key, val, sr.leaf)
		childE := t.childEdge(t.pool.At(sr.parent), key)
		if childE.CompareAndSwap(atomicx.MakeRef(sr.leaf, 0), internal) {
			return true
		}
		t.discardInsert(h.cache, internal, sr.leaf)
		cv := childE.Load()
		if cv.Slot() == sr.leaf && cv.Tag() != 0 {
			t.cleanup(key, sr, h.retire) // help the obstructing delete
		}
	}
}

// Remove unmaps key, returning the removed value.
func (h *ExpeditedHandle) Remove(key int64) (int64, bool) {
	t := h.l.t
	injected := false
	var doomed uint64
	var val int64
	for {
		sr := h.seek(key)
		if !injected {
			leaf := t.pool.At(sr.leaf)
			if leaf.Key.Load() != key {
				return 0, false
			}
			val = leaf.Val.Load()
			childE := t.childEdge(t.pool.At(sr.parent), key)
			if childE.CompareAndSwap(atomicx.MakeRef(sr.leaf, 0), atomicx.MakeRef(sr.leaf, flagBit)) {
				injected = true
				doomed = sr.leaf
				if t.cleanup(key, sr, h.retire) {
					return val, true
				}
				continue
			}
			cv := childE.Load()
			if cv.Slot() == sr.leaf && cv.Tag() != 0 {
				t.cleanup(key, sr, h.retire)
			}
			continue
		}
		if sr.leaf != doomed {
			return val, true
		}
		// Our injection froze the edge parent→leaf as flagged until the
		// splice. If the slot is back at this position unflagged, it is a
		// recycled incarnation: the original splice already happened.
		if cv := t.childEdge(t.pool.At(sr.parent), key).Load(); cv.Slot() != sr.leaf || cv.Tag()&flagBit == 0 {
			return val, true
		}
		if t.cleanup(key, sr, h.retire) {
			return val, true
		}
	}
}

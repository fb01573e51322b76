package skiplist

import (
	"runtime"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Expedited is a skip list protected by HP-RCU or HP-BRCU: the whole
// multi-level descent runs inside (bounded) critical sections, and the
// full preds/succs record is protected *once* per checkpoint instead of
// per window shift — the advantage the paper credits for HP-BRCU's lead
// in Figure 7d. Helping unlinks run inside abort-masked regions.
type Expedited struct {
	l   *list
	dom *core.Domain
}

// defaultSkipBackupPeriod exceeds any realistic operation length: skip
// list operations are short (O(log n) steps), so the paper's design
// protects the preds/succs record once, at the end of the critical
// section (§6's explanation of Figure 7d); a mid-descent checkpoint
// would write 2·MaxHeight+2 shields for nothing. Rollbacks restart the
// (cheap) descent instead.
const defaultSkipBackupPeriod = 4096

func skipCfg(cfg core.Config) core.Config {
	if cfg.BackupPeriod == 0 {
		cfg.BackupPeriod = defaultSkipBackupPeriod
	}
	return cfg
}

// NewHPRCU creates a skip list protected by HP-RCU (§3).
func NewHPRCU(cfg core.Config) *Expedited {
	s := &Expedited{l: newList(cfg.Allocator), dom: core.NewDomain(core.BackendRCU, skipCfg(cfg))}
	s.dom.BindPool(s.l.pool)
	return s
}

// NewHPBRCU creates a skip list protected by HP-BRCU (§4).
func NewHPBRCU(cfg core.Config) *Expedited {
	s := &Expedited{l: newList(cfg.Allocator), dom: core.NewDomain(core.BackendBRCU, skipCfg(cfg))}
	s.dom.BindPool(s.l.pool)
	return s
}

// Stats exposes reclamation statistics.
func (s *Expedited) Stats() *stats.Reclamation { return s.dom.Stats() }

// Domain exposes the underlying HP-(B)RCU domain.
func (s *Expedited) Domain() *core.Domain { return s.dom }

// LenSlow / KeysSlow / CheckSlow: single-threaded checks.
func (s *Expedited) LenSlow() int      { return s.l.lenSlow() }
func (s *Expedited) KeysSlow() []int64 { return s.l.keysSlow() }
func (s *Expedited) CheckSlow() bool   { return s.l.checkTowersSlow() }

// cursor is the traversal cursor: the current level window plus the
// preds/succs recorded at the levels already completed.
type cursor struct {
	level int
	pred  uint64
	cur   atomicx.Ref
	preds [MaxHeight]uint64
	succs [MaxHeight]atomicx.Ref
	// target/saw implement the deleter's clean-pass check.
	target atomicx.Ref
	saw    bool
}

// protector checkpoints a cursor: the live window plus every recorded
// level, 2·MaxHeight+2 shields in total, written once per checkpoint. A
// handle owns two (the §4.3 double buffer); index 1 holds a finished
// search's record.
type protector struct {
	predS, curS *hp.Shield
	predsS      [MaxHeight]*hp.Shield
	succsS      [MaxHeight]*hp.Shield
}

func newProtector(h *core.Handle) protector {
	p := protector{predS: h.NewShield(), curS: h.NewShield()}
	for i := 0; i < MaxHeight; i++ {
		p.predsS[i] = h.NewShield()
		p.succsS[i] = h.NewShield()
	}
	return p
}

func (p *protector) protect(c *cursor) {
	p.predS.ProtectSlot(c.pred)
	p.curS.Protect(c.cur)
	for i := MaxHeight - 1; i > c.level; i-- {
		keep(p.predsS[i], c.preds[i])
		keep(p.succsS[i], c.succs[i].Slot())
	}
}

// keep publishes slot in s unless s already holds it. The recorded
// levels change little between operations — above the list's height
// every record is head→nil — so most of a checkpoint's 2·MaxHeight
// shield stores (sequentially consistent, a locked exchange each) would
// rewrite the value already published. Skipping them is safe: the
// shield has held slot continuously since its earlier store, which
// precedes the checkpoint's commit poll as a fresh store would.
func keep(s *hp.Shield, slot uint64) {
	if s.Get() != slot {
		s.ProtectSlot(slot)
	}
}

// ClearProtection releases every shield (core.ProtectionClearer); the
// recover barrier calls it when a panic abandons a traversal.
func (p *protector) ClearProtection() {
	p.predS.Clear()
	p.curS.Clear()
	for i := 0; i < MaxHeight; i++ {
		p.predsS[i].Clear()
		p.succsS[i].Clear()
	}
}

// getCursor is the read-only optimistic traversal cursor.
type getCursor struct {
	level int
	pred  uint64
	cur   atomicx.Ref
}

type getProtector struct{ predS, curS *hp.Shield }

func (p *getProtector) protect(c *getCursor) {
	p.predS.ProtectSlot(c.pred)
	p.curS.Protect(c.cur)
}

// ClearProtection releases both shields (core.ProtectionClearer).
func (p *getProtector) ClearProtection() {
	p.predS.Clear()
	p.curS.Clear()
}

// ExpeditedHandle is one thread's accessor.
type ExpeditedHandle struct {
	l     *Expedited
	h     *core.Handle
	cache *alloc.Cache[node]
	rng   *atomicx.Rand

	prots                        [2]protector
	getProts                     [2]getProtector
	maskPredS, maskCurS, maskNxS *hp.Shield
	nodeS                        *hp.Shield
}

// Register creates a thread handle.
func (s *Expedited) Register() *ExpeditedHandle {
	h := s.dom.Register()
	return &ExpeditedHandle{
		l: s, h: h, cache: s.l.pool.NewCache(),
		rng:   atomicx.NewRand(nextSeed()),
		prots: [2]protector{newProtector(h), newProtector(h)},
		getProts: [2]getProtector{
			{predS: h.NewShield(), curS: h.NewShield()},
			{predS: h.NewShield(), curS: h.NewShield()},
		},
		maskPredS: h.NewShield(), maskCurS: h.NewShield(), maskNxS: h.NewShield(),
		nodeS: h.NewShield(),
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

// notRetired certifies that a node was not yet retired at the read: a node
// is retired only after its level-0 next is marked (markTower), and marks
// are never cleared.
func (l *list) notRetired(slot uint64) bool {
	return l.pool.At(slot).Next[0].Load().Tag() == 0
}

// valid reports whether a checkpointed window can be resumed from:
// neither its predecessor nor its current node is retired yet.
func (l *list) valid(pred uint64, cur atomicx.Ref) bool {
	return l.notRetired(pred) && (cur.IsNil() || l.notRetired(cur.Slot()))
}

// search runs the expedited find on the walk primitives. ok=false means
// the operation must be retried from scratch (failed revalidation or a
// lost helping CAS). On success preds/succs in the returned cursor are
// protected by prots[1].
func (h *ExpeditedHandle) search(key int64, target atomicx.Ref) (cursor, bool, bool) {
	l := h.l.l
	var (
		w    core.Walk
		c    cursor
		ckpt [2]cursor
	)
	w.Begin(h.h)
	defer w.Recover("search", &h.prots[0], &h.prots[1])
	for w.Enter() {
		if w.Fresh() {
			c = cursor{
				level:  MaxHeight - 1,
				pred:   l.head,
				cur:    l.pool.At(l.head).Next[MaxHeight-1].Load().Untagged(),
				target: target,
			}
			if !c.cur.IsNil() && c.cur == target {
				c.saw = true
			}
			i := w.Next()
			h.prots[i].protect(&c)
			ckpt[i] = c
			if !w.Start() {
				continue
			}
		} else if c = ckpt[w.Idx()]; !l.valid(c.pred, c.cur) {
			w.Fail()
			return c, false, false
		}
		for w.Tick() {
			// A marked node must be unlinked before the key comparison:
			// a logically deleted node with key >= the search key would
			// otherwise be recorded as a successor (and the deleter's
			// clean pass would keep seeing it forever).
			if c.cur.IsNil() || l.at(c.cur).Next[c.level].Load().Tag() == 0 && l.at(c.cur).Key.Load() >= key {
				// Level finished: record and descend (or finish).
				c.preds[c.level] = c.pred
				c.succs[c.level] = c.cur
				if c.level == 0 {
					found := false
					if !c.cur.IsNil() {
						n := l.at(c.cur)
						found = n.Key.Load() == key && n.Next[0].Load().Tag() == 0
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
					return c, found, true
				}
				c.level--
				c.cur = l.pool.At(c.pred).Next[c.level].Load().Untagged()
			} else if next := l.at(c.cur).Next[c.level].Load(); next.Tag() != 0 {
				// cur is marked at this level: unlink inside a masked
				// region with the operands shielded (no retirement here —
				// the clean-pass owner retires).
				nu := next.Untagged()
				h.maskPredS.ProtectSlot(c.pred)
				h.maskCurS.Protect(c.cur)
				h.maskNxS.Protect(nu)
				succ := false
				level := c.level
				pred, cur := c.pred, c.cur
				ran, mustRollback := h.h.Mask(func() {
					succ = l.pool.At(pred).Next[level].CompareAndSwap(cur, nu)
				})
				if mustRollback {
					break
				}
				if !ran || !succ {
					w.Fail()
					return c, false, false
				}
				c.cur = nu
			} else {
				c.pred = c.cur.Slot()
				c.cur = next.Untagged()
			}
			if !c.cur.IsNil() && c.cur == c.target {
				c.saw = true
			}
			if w.Due() && l.valid(c.pred, c.cur) {
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

// find retries search until it succeeds, yielding between attempts so
// that on a single CPU two operations whose retries invalidate each other
// cannot ping-pong indefinitely.
func (h *ExpeditedHandle) find(key int64, target atomicx.Ref) (cursor, bool) {
	for attempt := 0; ; attempt++ {
		c, found, ok := h.search(key, target)
		if ok {
			return c, found
		}
		if attempt > 0 {
			runtime.Gosched()
		}
	}
}

// Get returns the value mapped to key.
func (h *ExpeditedHandle) Get(key int64) (int64, bool) {
	c, found := h.find(key, atomicx.Nil)
	if !found {
		return 0, false
	}
	return h.l.l.at(c.succs[0]).Val.Load(), true
}

// tryGet is one optimistic descent on the walk primitives: it skips
// marked nodes without helping, so a step never writes. ok is false when
// a resumed checkpoint failed revalidation.
func (h *ExpeditedHandle) tryGet(key int64) (getCursor, bool, bool) {
	l := h.l.l
	var (
		w    core.Walk
		c    getCursor
		ckpt [2]getCursor
	)
	w.Begin(h.h)
	defer w.Recover("GetOptimistic", &h.getProts[0], &h.getProts[1])
	for w.Enter() {
		if w.Fresh() {
			c = getCursor{
				level: MaxHeight - 1,
				pred:  l.head,
				cur:   l.pool.At(l.head).Next[MaxHeight-1].Load().Untagged(),
			}
			i := w.Next()
			h.getProts[i].protect(&c)
			ckpt[i] = c
			if !w.Start() {
				continue
			}
		} else if c = ckpt[w.Idx()]; !l.valid(c.pred, c.cur) {
			w.Fail()
			return c, false, false
		}
		for w.Tick() {
			if c.cur.IsNil() || l.at(c.cur).Key.Load() >= key {
				if c.level == 0 {
					found := false
					if !c.cur.IsNil() {
						n := l.at(c.cur)
						found = n.Key.Load() == key && n.Next[0].Load().Tag() == 0
					}
					i := w.Next()
					h.getProts[i].protect(&c)
					done, move := w.Finish()
					if !done {
						break
					}
					if move {
						h.getProts[1].protect(&c)
					}
					return c, found, true
				}
				c.level--
				c.cur = l.pool.At(c.pred).Next[c.level].Load().Untagged()
			} else if next := l.at(c.cur).Next[c.level].Load(); next.Tag() != 0 {
				c.cur = next.Untagged() // skip marked, no helping
			} else {
				c.pred = c.cur.Slot()
				c.cur = next.Untagged()
			}
			if w.Due() && l.valid(c.pred, c.cur) {
				i := w.Next()
				h.getProts[i].protect(&c)
				ckpt[i] = c
				if !w.Commit() {
					break
				}
			}
		}
	}
	return c, false, false // unreachable: a get is never cancellable
}

// GetOptimistic is the wait-free-style get on the walk primitives: it
// skips marked nodes without helping (lock-free under HP-BRCU).
func (h *ExpeditedHandle) GetOptimistic(key int64) (int64, bool) {
	for attempt := 0; ; attempt++ {
		c, found, ok := h.tryGet(key)
		if !ok {
			if attempt > 0 {
				runtime.Gosched()
			}
			continue
		}
		if !found {
			return 0, false
		}
		return h.l.l.at(c.cur).Val.Load(), true
	}
}

// Insert maps key to val; it fails if key is already present.
func (h *ExpeditedHandle) Insert(key, val int64) bool {
	l := h.l.l
	for {
		c, found := h.find(key, atomicx.Nil)
		if found {
			return false
		}
		height := randomHeight(h.rng)
		slot, ref := l.newNode(h.cache, key, val, height, &c.succs)
		h.nodeS.ProtectSlot(slot)
		if !l.pool.At(c.preds[0]).Next[0].CompareAndSwap(c.succs[0], ref) {
			l.discard(h.cache, slot)
			continue
		}
		n := l.pool.At(slot)
		for level := 1; level < height; level++ {
			for {
				if l.pool.At(c.preds[level]).Next[level].CompareAndSwap(c.succs[level], ref) {
					break
				}
				c, _ = h.find(key, atomicx.Nil)
				if c.succs[0] != ref {
					h.nodeS.Clear()
					return true
				}
				old := n.Next[level].Load()
				if old.Tag() != 0 {
					h.nodeS.Clear()
					return true
				}
				if old != c.succs[level] && !n.Next[level].CompareAndSwap(old, c.succs[level]) {
					h.nodeS.Clear()
					return true
				}
			}
		}
		h.nodeS.Clear()
		return true
	}
}

// Remove unmaps key, returning the removed value.
func (h *ExpeditedHandle) Remove(key int64) (int64, bool) {
	l := h.l.l
	c, found := h.find(key, atomicx.Nil)
	if !found {
		return 0, false
	}
	ref := c.succs[0] // protected by prots[1]
	val := l.at(ref).Val.Load()
	if !l.markTower(ref) {
		return 0, false
	}
	// We own the node now: scan until two consecutive clean passes (extra
	// margin against in-flight inserts re-linking the node), then retire
	// (two-step). Yield between passes: the unlink progress may depend on
	// other threads getting scheduled.
	for clean := 0; clean < 2; {
		cc, _ := h.find(key, ref)
		if cc.saw {
			clean = 0
			runtime.Gosched()
		} else {
			clean++
		}
	}
	l.pool.Hdr(ref.Slot()).Retire()
	h.h.Retire(ref.Slot(), l.pool)
	return val, true
}

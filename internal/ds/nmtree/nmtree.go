// Package nmtree implements the Natarajan-Mittal lock-free external binary
// search tree (PPoPP 2014), one of the paper's evaluation structures
// (Figure 7c). Internal nodes route; leaves hold the keys. Deletion is
// edge-based: the deleter *flags* the edge from the parent to the doomed
// leaf (injection), then — possibly helped by other operations — *tags*
// the parent's other edge and splices the parent out by swinging the
// grandparent/ancestor edge to the surviving sibling (cleanup).
//
// Edge tag bits: bit 0 = FLAG (child leaf is being deleted), bit 1 = TAG
// (this edge's parent is being spliced out). Both ride in the atomicx.Ref
// tag bits, so one CAS covers address and state, as in the original.
//
// Variants: EBR/NR, NBR (the tree is access-aware: seeks are pure reads,
// all writes happen after reservation), and HP-RCU/HP-BRCU via a seek
// loop over the core.Walk primitives. Plain HP does not apply (Table 1): a seek may traverse
// edges out of flagged/tagged nodes that a concurrent cleanup has already
// retired, with no per-node validation possible.
//
// When a cleanup splices out a chain (ancestor's successor ≠ parent, the
// rare helping pile-up), the winner retires the chain's endpoints —
// successor, parent, and the flagged leaf, all covered by its protection —
// and leaks the interior nodes. The interior of a chain is only ever
// produced by overlapping incomplete deletions and is empty in the common
// case; leaking it is the standard compromise in reclamation benchmarks of
// this structure and applies identically to every scheme here.
package nmtree

import (
	"math"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
)

// Edge state bits (atomicx.Ref tag bits).
const (
	flagBit = 1 // the child (a leaf) is being deleted
	tagBit  = 2 // the parent of this edge is being spliced out
)

// Sentinel keys: inf2 > inf1 > every user key.
const (
	inf2 = math.MaxInt64
	inf1 = math.MaxInt64 - 1
)

// node is one tree node. A node is a leaf iff its Left edge is nil; leaves
// never gain children (inserts replace the leaf with a fresh internal
// node).
type node struct {
	Key   atomic.Int64
	Val   atomic.Int64
	Left  atomicx.AtomicRef
	Right atomicx.AtomicRef
}

// tree is the scheme-independent core.
type tree struct {
	pool  *alloc.Pool[node]
	root  uint64 // R: immortal
	sroot uint64 // S = R.left: immortal
}

func newTree(mode ...alloc.Mode) *tree {
	pool := alloc.NewPool[node](mode...)
	cache := pool.NewCache()
	mk := func(key int64) (uint64, *node) {
		s, n := pool.Alloc(cache)
		n.Key.Store(key)
		n.Left.Store(atomicx.Nil)
		n.Right.Store(atomicx.Nil)
		return s, n
	}
	l1, _ := mk(inf1) // leaf ∞₁
	l2a, _ := mk(inf2)
	l2b, _ := mk(inf2)
	sSlot, s := mk(inf1)
	s.Left.Store(atomicx.MakeRef(l1, 0))
	s.Right.Store(atomicx.MakeRef(l2a, 0))
	rSlot, r := mk(inf2)
	r.Left.Store(atomicx.MakeRef(sSlot, 0))
	r.Right.Store(atomicx.MakeRef(l2b, 0))
	return &tree{pool: pool, root: rSlot, sroot: sSlot}
}

func (t *tree) at(r atomicx.Ref) *node { return t.pool.At(r.Slot()) }

// childEdge returns the edge of n on key's side.
func (t *tree) childEdge(n *node, key int64) *atomicx.AtomicRef {
	if key < n.Key.Load() {
		return &n.Left
	}
	return &n.Right
}

// siblingEdge returns the edge of n opposite key's side.
func (t *tree) siblingEdge(n *node, key int64) *atomicx.AtomicRef {
	if key < n.Key.Load() {
		return &n.Right
	}
	return &n.Left
}

// isLeafSlot reports whether the node at slot is a leaf.
func (t *tree) isLeafSlot(slot uint64) bool {
	return t.pool.At(slot).Left.Load().IsNil()
}

// seekRecord is the result of a traversal (the NM seek record): the last
// clean edge (ancestor → successor) plus the terminal parent → leaf pair.
type seekRecord struct {
	ancestor  uint64
	successor uint64
	parent    uint64
	leaf      uint64
}

// seekStep descends one level from the cursor; it is factored out so that
// every scheme runs the identical traversal. The cursor tracks the edge
// value that led into leaf (for the clean-edge bookkeeping).
type seekCursor struct {
	sr       seekRecord
	leafEdge atomicx.Ref // value of the edge parent→leaf
}

func (t *tree) seekInit() seekCursor {
	return seekCursor{
		sr: seekRecord{
			ancestor:  t.root,
			successor: t.sroot,
			parent:    t.root,
			leaf:      t.sroot,
		},
		leafEdge: t.pool.At(t.root).Left.Load(),
	}
}

// seekStep advances the cursor one edge. done is true once leaf is a true
// leaf (descent finished). The expedited seek calls its two halves
// directly, so both inline into its loop.
func (t *tree) seekStep(key int64, c *seekCursor) (done bool) {
	next := t.seekEdge(key, c)
	if next.IsNil() {
		return true // c.sr.leaf is a leaf
	}
	c.advance(next)
	return false
}

// seekEdge loads the edge the descent follows out of the cursor's leaf;
// it is nil once leaf is a true leaf.
func (t *tree) seekEdge(key int64, c *seekCursor) atomicx.Ref {
	return t.childEdge(t.pool.At(c.sr.leaf), key).Load()
}

// advance moves the cursor down the (non-nil) edge next.
func (c *seekCursor) advance(next atomicx.Ref) {
	if c.leafEdge.Tag()&tagBit == 0 {
		// Edge parent→leaf is clean: (parent, leaf) is the deepest clean
		// edge so far.
		c.sr.ancestor = c.sr.parent
		c.sr.successor = c.sr.leaf
	}
	c.sr.parent = c.sr.leaf
	c.sr.leaf = next.Slot()
	c.leafEdge = next
}

// newLeafAndInternal builds the replacement subtree for an insert: a new
// internal node whose children are the existing leaf and a new leaf. It
// returns the internal node's reference.
func (t *tree) newLeafAndInternal(cache *alloc.Cache[node], key, val int64, leafSlot uint64) atomicx.Ref {
	leafKey := t.pool.At(leafSlot).Key.Load()

	ls, ln := t.pool.Alloc(cache)
	ln.Key.Store(key)
	ln.Val.Store(val)
	ln.Left.Store(atomicx.Nil)
	ln.Right.Store(atomicx.Nil)

	is, in := t.pool.Alloc(cache)
	in.Val.Store(0)
	if key < leafKey {
		in.Key.Store(leafKey)
		in.Left.Store(atomicx.MakeRef(ls, 0))
		in.Right.Store(atomicx.MakeRef(leafSlot, 0))
	} else {
		in.Key.Store(key)
		in.Left.Store(atomicx.MakeRef(leafSlot, 0))
		in.Right.Store(atomicx.MakeRef(ls, 0))
	}
	return atomicx.MakeRef(is, 0)
}

// discardInsert returns an unpublished insert subtree to the pool.
func (t *tree) discardInsert(cache *alloc.Cache[node], internal atomicx.Ref, leafSlot uint64) {
	in := t.at(internal)
	l, r := in.Left.Load(), in.Right.Load()
	var newLeaf atomicx.Ref
	if l.Slot() == leafSlot {
		newLeaf = r
	} else {
		newLeaf = l
	}
	t.pool.Hdr(newLeaf.Slot()).Retire()
	t.pool.FreeLocal(cache, newLeaf.Slot())
	t.pool.Hdr(internal.Slot()).Retire()
	t.pool.FreeLocal(cache, internal.Slot())
}

// cleanup splices out the parent and the flagged leaf recorded in sr
// (the NM cleanup). retire is called with each unlinked slot this thread
// owns. It reports whether the splice succeeded.
func (t *tree) cleanup(key int64, sr seekRecord, retire func(slot uint64)) bool {
	parentN := t.pool.At(sr.parent)
	childE := t.childEdge(parentN, key)
	sibE := t.siblingEdge(parentN, key)

	// Which of parent's children is the flagged (doomed) one?
	cv := childE.Load()
	if cv.Tag()&flagBit == 0 {
		// We are helping a deletion of the other child.
		childE, sibE = sibE, childE
		cv = childE.Load()
		if cv.Tag()&flagBit == 0 {
			// Stale record: no deletion in progress at this parent.
			return false
		}
	}
	doomed := cv.Slot()

	// Tag the surviving edge so parent's children freeze.
	for {
		sv := sibE.Load()
		if sv.Tag()&tagBit != 0 {
			break
		}
		sibE.CompareAndSwap(sv, sv.WithTag(sv.Tag()|tagBit))
	}
	sv := sibE.Load()
	// Splice: ancestor's clean edge successor → surviving child,
	// preserving the survivor's FLAG, clearing the TAG.
	newEdge := atomicx.MakeRef(sv.Slot(), sv.Tag()&flagBit)
	ancE := t.childEdge(t.pool.At(sr.ancestor), key)
	if !ancE.CompareAndSwap(atomicx.MakeRef(sr.successor, 0), newEdge) {
		return false
	}

	// Retire what this splice unlinked: the chain endpoints plus the
	// doomed leaf. TryRetire resolves ownership when splices overlap.
	for _, s := range [...]uint64{sr.successor, sr.parent, doomed} {
		if t.pool.Hdr(s).TryRetire() {
			retire(s)
		}
	}
	return true
}

// getSlow / lenSlow: single-threaded structural checks for tests.
func (t *tree) lenSlow() int {
	var walk func(r atomicx.Ref) int
	walk = func(r atomicx.Ref) int {
		n := t.at(r)
		if n.Left.Load().IsNil() {
			if k := n.Key.Load(); k < inf1 {
				return 1
			}
			return 0
		}
		return walk(n.Left.Load().Untagged()) + walk(n.Right.Load().Untagged())
	}
	return walk(atomicx.MakeRef(t.root, 0))
}

func (t *tree) keysSlow() []int64 {
	var out []int64
	var walk func(r atomicx.Ref)
	walk = func(r atomicx.Ref) {
		n := t.at(r)
		if n.Left.Load().IsNil() {
			if k := n.Key.Load(); k < inf1 {
				out = append(out, k)
			}
			return
		}
		walk(n.Left.Load().Untagged())
		walk(n.Right.Load().Untagged())
	}
	walk(atomicx.MakeRef(t.root, 0))
	return out
}

// Package hlist implements Harris's lock-free linked list (Harris 2001)
// with *optimistic traversal*: searches follow links through logically
// deleted (marked) nodes and excise whole marked runs with a single CAS.
// This is the structure plain hazard pointers cannot protect (Figure 2 of
// the paper): a traversal may follow a link out of an already-retired node.
//
// The package also provides the paper's HHSList flavour: GetOptimistic is
// the Herlihy-Shavit wait-free-style contains that never writes, while Get
// uses the full Harris search (and thus helps with excision).
//
// Variants:
//
//   - EBR/NR  (hlist.EBR):       coarse critical section per operation.
//   - HP-RCU / HP-BRCU (hlist.Expedited): loops over the core.Walk
//     primitives; run excision happens inside an abort-masked region
//     with the excision operands protected by outliving shields.
//   - NBR (hlist.NBR):           read-phase traversal, write-phase
//     excision (the list is access-aware when gets also restart).
//
// Marked runs are excised at most maxRun nodes at a time so every
// traversal step stays bounded (§5 requires bounded critical-section
// phases); a partial excision legally re-links the predecessor to a still
// marked node, which a later search removes.
package hlist

import (
	"fmt"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/ds/lnode"
)

// maxRun bounds how many marked nodes one excision covers.
const maxRun = 64

// runBuf holds the slots of one marked run, captured during runEnd so that
// retirement never has to walk links again after the first node is
// retired (a retired node can, in principle, be reclaimed and recycled the
// moment the scheme's grace conditions allow, so re-reading its link word
// would be unsound).
type runBuf struct {
	slots [maxRun]uint64
	n     int
}

// runEnd walks the marked run starting at first (which must be marked),
// recording every run node in buf, and returns the excision target: the
// first unmarked node, nil, or — if the run exceeds maxRun — a still
// marked node that stays linked (partial excision). All returned
// references are untagged.
func runEnd(l *lnode.List, first atomicx.Ref, buf *runBuf) (end atomicx.Ref) {
	buf.n = 0
	cur := first
	for i := 0; i < maxRun; i++ {
		next := l.At(cur).Next.Load()
		if next.Tag() == 0 {
			// cur's own Next is unmarked, so cur itself is live: it is
			// the excision target, not a run member (the mark lives on a
			// node's own Next word, not on the edge pointing at it).
			return cur
		}
		buf.slots[buf.n] = cur.Slot()
		buf.n++
		nu := next.Untagged()
		if nu.IsNil() {
			return atomicx.Nil
		}
		cur = nu
	}
	return cur // partial excision: cur itself is marked but stays linked
}

// retireRun retires the captured run nodes. Winning the excision CAS makes
// the caller the owner of the run in the common case; when two excisions
// race over runs that briefly overlapped (a partial excision boundary
// moving under a concurrent remove), TryRetire resolves per-node ownership
// exactly as the Natarajan-Mittal chain splices do: whichever excisor
// claims a node first retires it, the other skips it.
func retireRun(l *lnode.List, buf *runBuf, retire func(slot uint64)) int {
	n := 0
	for i := 0; i < buf.n; i++ {
		// Lifecycle assertion in the spirit of the allocator's poison
		// checks: a run member's mark is permanent, so an unmarked node
		// here means a live node was captured (this caught a run-boundary
		// bug where runEnd treated the first live node as a run member).
		// Every caller runs inside a critical section, so the node cannot
		// have been recycled between capture and this re-read.
		if l.Pool.At(buf.slots[i]).Next.Load().Tag() == 0 {
			panic(fmt.Sprintf("hlist: retireRun captured unmarked node (key=%d slot=%d)",
				l.Pool.At(buf.slots[i]).Key.Load(), buf.slots[i]))
		}
		if l.Pool.Hdr(buf.slots[i]).TryRetire() {
			retire(buf.slots[i])
			n++
		}
	}
	return n
}

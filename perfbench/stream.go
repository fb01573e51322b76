package main

import (
	"fmt"
	"math/rand/v2"
)

// opCode is what one stream entry asks for. In the cache server, write
// is a SET (upsert) and remove a DEL; everywhere else they are the map's
// Insert and Remove.
type opCode uint32

const (
	opRead opCode = iota
	opWrite
	opRemove
)

// An entry packs a stripe index (low 24 bits) and an opCode.
const idxMask = 1<<24 - 1

func entry(idx int, op opCode) uint32 { return uint32(idx) | uint32(op)<<24 }

func unpack(e uint32) (idx int, op opCode) { return int(e & idxMask), opCode(e >> 24) }

// streamLen is how many operations one client's stream holds; clients
// cycle through it.
const streamLen = 1 << 20

// rngFor derives a generator for one purpose from the workload seed.
func rngFor(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, purpose))
}

// mixStream draws n operations: reads with probability readFrac, the
// rest split writeFrac:(1-readFrac-writeFrac) between writes and removes,
// with stripe indices from key.
func mixStream(r *rand.Rand, n int, readFrac, writeFrac float64, key func() int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		op := opRemove
		switch p := r.Float64(); {
		case p < readFrac:
			op = opRead
		case p < readFrac+writeFrac:
			op = opWrite
		}
		s[i] = entry(key(), op)
	}
	return s
}

// Model states besides a stored value (values are never negative).
const (
	absent  = -1
	unknown = -2 // a write failed part-way; the next result is taken as truth
)

// model is one client's view of its key stripe: the client is the only
// writer of these keys, so every result must match.
type model struct {
	vals  []int64
	wrong int64
	first string // the first disagreement, for the report
}

func newModel(stripe int) *model {
	m := &model{vals: make([]int64, stripe)}
	for i := range m.vals {
		m.vals[i] = absent
	}
	return m
}

func (m *model) fail(format string, args ...any) status {
	if m.wrong == 0 {
		m.first = fmt.Sprintf(format, args...)
	}
	m.wrong++
	return statusWrong
}

// get checks a read of stripe index idx (key for the report).
func (m *model) get(idx int, key, v int64, found bool) status {
	want := m.vals[idx]
	switch {
	case want == unknown:
		m.vals[idx] = absent
		if found {
			m.vals[idx] = v
		}
	case found != (want >= 0):
		return m.fail("get(%d): found=%v, model has %d", key, found, want)
	case found && v != want:
		return m.fail("get(%d) = %d, model has %d", key, v, want)
	}
	return statusOK
}

// insert checks an insert-if-absent of val.
func (m *model) insert(idx int, key, val int64, ok bool) status {
	want := m.vals[idx]
	switch {
	case want == unknown:
		if ok {
			m.vals[idx] = val
		}
	case ok != (want == absent):
		return m.fail("insert(%d): ok=%v, model has %d", key, ok, want)
	case ok:
		m.vals[idx] = val
	}
	return statusOK
}

// remove checks a remove that returned (v, ok); v is ignored when the
// caller does not see it (a DEL reply).
func (m *model) remove(idx int, key, v int64, ok, checkVal bool) status {
	want := m.vals[idx]
	m.vals[idx] = absent
	switch {
	case want == unknown:
	case ok != (want >= 0):
		return m.fail("remove(%d): ok=%v, model has %d", key, ok, want)
	case ok && checkVal && v != want:
		return m.fail("remove(%d) = %d, model has %d", key, v, want)
	}
	return statusOK
}

// lost marks idx unknown after a write that returned an error.
func (m *model) lost(idx int) { m.vals[idx] = unknown }

package main

import (
	"fmt"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// list-longscan: the paper's Figure 1 model. One HHSList of lsKeys/2
// nodes on registered handles; one reader doing uniform Gets, which walk
// half the list on average, and one writer inserting and removing
// lsWriterKey, which sorts below every reader key, so it retires a node
// on every second operation at the head of the list.
const (
	lsKeys      = 1 << 13
	lsWriterKey = 0
)

// longscanWorkload draws the reader's keys and returns a function that
// builds instances replaying them.
func longscanWorkload(seed uint64) func() (*instance, error) {
	r := rngFor(seed, purposeStream)
	keys := make([]uint32, streamLen)
	for i := range keys {
		keys[i] = uint32(1 + r.IntN(lsKeys))
	}
	return func() (*instance, error) { return buildLongscan(seed, keys) }
}

func buildLongscan(seed uint64, keys []uint32) (*instance, error) {
	m, err := hpbrcu.NewHHSList(hpbrcu.HPBRCU, hpbrcu.Config{})
	if err != nil {
		return nil, err
	}
	present := newModel(lsKeys + 1) // the prefilled keys, indexed by key
	h := m.Register()
	for _, i := range rngFor(seed, purposePrefill).Perm(lsKeys)[:lsKeys/2] {
		key := int64(i + 1)
		if !h.Insert(key, prefillVal(key)) {
			h.Unregister()
			hpbrcu.Close(m, closeTimeout)
			return nil, fmt.Errorf("prefill insert(%d) failed", key)
		}
		present.vals[key] = prefillVal(key)
	}
	h.Unregister()
	hpbrcu.ResetUnreclaimedPeaks(m)

	reader := &lsReader{h: m.Register(), keys: keys, present: present}
	writer := &lsWriter{h: m.Register(), model: newModel(1)}
	in := &instance{
		m:       m,
		clients: []client{reader, writer},
		models:  []*model{present, writer.model},
		close: func() error {
			reader.h.Unregister()
			writer.h.Unregister()
			return hpbrcu.Close(m, closeTimeout)
		},
	}
	in.trace = func(res *result, o options, l layers) {
		set := spanSet{newTracer(0), newTracer(1)}
		reader.tr, writer.tr = set[0], set[1]
		res.tracedPhase(l, o, m, in.clients, set)
		l.addSpans(set, map[string]spanName{
			"ds.get_ns":    spanDSGet,
			"ds.insert_ns": spanDSInsert,
			"ds.remove_ns": spanDSRemove,
		})
		passed := reader.nodesPassed()
		get, _ := set.selfNS(spanDSGet)
		l["core.ns_per_node"] = get / passed
		res.note("a uniform Get passes %.1f nodes on average", passed)
		res.writeSpans(map[string]spanSet{"workload": set})
	}
	return in, nil
}

// lsReader checks that Get hits exactly the prefilled keys.
type lsReader struct {
	h       hpbrcu.MapHandle
	keys    []uint32
	present *model
	tr      *tracer
}

func (c *lsReader) step(seq int) (bool, status) {
	key := int64(c.keys[seq&(streamLen-1)])
	c.tr.next()
	c.tr.begin(spanDSGet)
	v, found := c.h.Get(key)
	c.tr.end()
	return false, c.present.get(int(key), key, v, found)
}

// lsWriter alternates inserting and removing lsWriterKey.
type lsWriter struct {
	h     hpbrcu.MapHandle
	model *model // one entry, lsWriterKey's
	val   int64
	tr    *tracer
}

func (c *lsWriter) step(int) (bool, status) {
	c.tr.next()
	if c.model.vals[0] == absent {
		c.val++
		c.tr.begin(spanDSInsert)
		ok := c.h.Insert(lsWriterKey, c.val)
		c.tr.end()
		return true, c.model.insert(0, lsWriterKey, c.val, ok)
	}
	c.tr.begin(spanDSRemove)
	v, ok := c.h.Remove(lsWriterKey)
	c.tr.end()
	return true, c.model.remove(0, lsWriterKey, v, ok, true)
}

// nodesPassed is the mean number of nodes a Get of the reader's stream
// passes: the prefilled keys below its key, the writer's node half the
// time, and the node the walk ends on.
func (c *lsReader) nodesPassed() float64 {
	below := make([]int, lsKeys+2) // below[k]: prefilled keys under k
	for k := 1; k <= lsKeys+1; k++ {
		below[k] = below[k-1]
		if c.present.vals[k-1] >= 0 {
			below[k]++
		}
	}
	var passed float64
	for _, k := range c.keys {
		passed += float64(below[k]) + 0.5 + 1
	}
	return passed / float64(len(c.keys))
}

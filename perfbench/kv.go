package main

import (
	"fmt"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// kv-mixed: a two-shard HP-BRCU hash map driven through the handle-free
// facade by two clients, keys uniform over kvKeys, half full, with the
// paper's read-write mix of 50% Get, 25% Insert and 25% Remove.
const (
	kvKeys    = 1 << 16
	kvClients = 2
	kvStripe  = kvKeys / kvClients
)

// Purposes the workload seed is split into (see rngFor).
const (
	purposePrefill = iota + 1
	purposeStream  // + client id
)

// prefillBase offsets prefill values from the values clients write.
const prefillBase = 1 << 40

func prefillVal(key int64) int64 { return prefillBase + key }

// prefill inserts a seeded half of every client's stripe through the
// facade and returns the clients' models of it.
func prefill(m hpbrcu.Map, seed uint64, clients, stripe int) ([]*model, error) {
	r := rngFor(seed, purposePrefill)
	models := make([]*model, clients)
	for c := range models {
		models[c] = newModel(stripe)
	}
	for idx := 0; idx < stripe; idx++ {
		for c, md := range models {
			if r.IntN(2) == 0 {
				continue
			}
			key := int64(idx*clients + c)
			ok, err := m.Insert(key, prefillVal(key))
			if err != nil || !ok {
				return nil, fmt.Errorf("prefill insert(%d): ok=%v err=%v", key, ok, err)
			}
			md.vals[idx] = prefillVal(key)
		}
	}
	hpbrcu.ResetUnreclaimedPeaks(m)
	return models, nil
}

// kvClient drives one stripe of keys (key ≡ id mod stride) through the
// facade, checking every result against its model.
type kvClient struct {
	id, stride int
	m          hpbrcu.Map
	stream     []uint32
	model      *model
	val        int64
	tr         *tracer
}

func (c *kvClient) key(idx int) int64 { return int64(idx*c.stride + c.id) }

// nextVal is a value no earlier write of this client used, distinct
// from every other client's.
func (c *kvClient) nextVal() int64 {
	c.val++
	return c.val*int64(c.stride) + int64(c.id)
}

func (c *kvClient) step(seq int) (bool, status) {
	idx, op := unpack(c.stream[seq&(streamLen-1)])
	key := c.key(idx)
	c.tr.next()
	switch op {
	case opRead:
		c.tr.begin(spanFacadeGet)
		v, found, err := c.m.Get(key)
		c.tr.end()
		if err != nil {
			return false, statusShed
		}
		return false, c.model.get(idx, key, v, found)
	case opWrite:
		val := c.nextVal()
		c.tr.begin(spanFacadeInsert)
		ok, err := c.m.Insert(key, val)
		c.tr.end()
		if err != nil {
			c.model.lost(idx)
			return true, statusShed
		}
		return true, c.model.insert(idx, key, val, ok)
	default:
		c.tr.begin(spanFacadeRemove)
		v, ok, err := c.m.Remove(key)
		c.tr.end()
		if err != nil {
			c.model.lost(idx)
			return true, statusShed
		}
		return true, c.model.remove(idx, key, v, ok, true)
	}
}

// kvWorkload draws the clients' streams and returns a function that
// builds instances replaying them.
func kvWorkload(seed uint64) func() (*instance, error) {
	streams := make([][]uint32, kvClients)
	for i := range streams {
		r := rngFor(seed, purposeStream+uint64(i))
		streams[i] = mixStream(r, streamLen, 0.50, 0.25, func() int { return r.IntN(kvStripe) })
	}
	return func() (*instance, error) { return buildKV(seed, streams) }
}

func buildKV(seed uint64, streams [][]uint32) (*instance, error) {
	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, hpbrcu.DefaultBuckets(kvKeys), hpbrcu.Config{
		Shards: hpbrcu.ShardsConfig{Count: 2},
	})
	if err != nil {
		return nil, err
	}
	models, err := prefill(m, seed, kvClients, kvStripe)
	if err != nil {
		hpbrcu.Close(m, closeTimeout)
		return nil, err
	}
	kcs := make([]*kvClient, kvClients)
	in := &instance{m: m, models: models, close: func() error { return hpbrcu.Close(m, closeTimeout) }}
	for i := range kcs {
		kcs[i] = &kvClient{id: i, stride: kvClients, m: m, stream: streams[i], model: models[i]}
		in.clients = append(in.clients, kcs[i])
	}
	in.trace = func(res *result, o options, l layers) {
		facade := make(spanSet, kvClients)
		for i, kc := range kcs {
			facade[i] = newTracer(i)
			kc.tr = facade[i]
		}
		res.tracedPhase(l, o, m, in.clients, facade)
		l.addSpans(facade, map[string]spanName{
			"hpbrcu.get_ns":    spanFacadeGet,
			"hpbrcu.insert_ns": spanFacadeInsert,
			"hpbrcu.remove_ns": spanFacadeRemove,
		})
		replay := res.runReplay(l, o, m, kcs)
		res.writeSpans(map[string]spanSet{"facade": facade, "replay": replay})
	}
	return in, nil
}

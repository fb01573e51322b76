package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"strconv"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/server"
)

// cache-server: smrcached in process with cmd/smrcached's production
// settings, driven over loopback TCP by two closed-loop connections,
// GET 75 / SET 20 / DEL 5 with keys zipf(1.2) over csKeys.
const (
	csKeys    = 1 << 16
	csClients = 2
	csStripe  = csKeys / csClients
	csBuckets = 1024
)

// csClient is one connection speaking the line protocol, checking every
// reply against its model of its key stripe.
type csClient struct {
	*kvClient // stripe, stream, model and values; its map is for the replay
	conn      net.Conn
	rd        *bufio.Reader
	buf       []byte
	err       error // the transport error that stopped the client
}

var (
	replyOK  = []byte("+OK\r\n")
	replyNil = []byte("$-1\r\n")
)

func (c *csClient) step(seq int) (bool, status) {
	idx, op := unpack(c.stream[seq&(streamLen-1)])
	key := c.key(idx)
	var val int64
	var name spanName
	b := c.buf[:0]
	switch op {
	case opRead:
		name = spanServerGet
		b = append(b, "GET "...)
		b = strconv.AppendInt(b, key, 10)
	case opWrite:
		name = spanServerSet
		val = c.nextVal()
		b = append(b, "SET "...)
		b = strconv.AppendInt(b, key, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, val, 10)
	default:
		name = spanServerDel
		b = append(b, "DEL "...)
		b = strconv.AppendInt(b, key, 10)
	}
	c.buf = append(b, '\r', '\n')
	write := op != opRead

	c.tr.next()
	c.tr.begin(name)
	_, err := c.conn.Write(c.buf)
	var line []byte
	if err == nil {
		line, err = c.rd.ReadSlice('\n')
	}
	c.tr.end()
	if err != nil {
		c.err = err
		return write, statusFatal
	}

	if line[0] == '-' { // -BUSY or -ERR
		if write {
			c.model.lost(idx)
		}
		return write, statusShed
	}
	switch op {
	case opRead:
		if bytes.Equal(line, replyNil) {
			return false, c.model.get(idx, key, 0, false)
		}
		if v, ok := parseInt(line); ok {
			return false, c.model.get(idx, key, v, true)
		}
	case opWrite:
		if bytes.Equal(line, replyOK) {
			c.model.vals[idx] = val
			return true, statusOK
		}
	default:
		if v, ok := parseInt(line); ok && (v == 0 || v == 1) {
			return true, c.model.remove(idx, key, 0, v == 1, false)
		}
	}
	return write, c.model.fail("unexpected reply %q to %q", line, c.buf)
}

// parseInt parses an integer reply ":<n>\r\n".
func parseInt(line []byte) (int64, bool) {
	if len(line) < 4 || line[0] != ':' {
		return 0, false
	}
	v, err := strconv.ParseInt(string(bytes.TrimRight(line[1:], "\r\n")), 10, 64)
	return v, err == nil
}

// zipfStream draws the GET/SET/DEL mix with stripe indices zipf(1.2).
func zipfStream(r *rand.Rand) []uint32 {
	z := rand.NewZipf(r, 1.2, 1, csStripe-1)
	return mixStream(r, streamLen, 0.75, 0.20, func() int { return int(z.Uint64()) })
}

// cacheServerWorkload draws the connections' streams and returns a
// function that builds instances replaying them.
func cacheServerWorkload(seed uint64) func() (*instance, error) {
	streams := make([][]uint32, csClients)
	for i := range streams {
		streams[i] = zipfStream(rngFor(seed, purposeStream+uint64(i)))
	}
	return func() (*instance, error) { return buildCacheServer(seed, streams) }
}

func buildCacheServer(seed uint64, streams [][]uint32) (*instance, error) {
	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, csBuckets, hpbrcu.Config{
		PanicPolicy:  hpbrcu.PanicRecover,
		Reaper:       hpbrcu.ReaperConfig{Enabled: true},
		Backpressure: hpbrcu.BackpressureConfig{Enabled: true},
		Shards:       hpbrcu.ShardsConfig{Count: 1},
	})
	if err != nil {
		return nil, err
	}
	models, err := prefill(m, seed, csClients, csStripe)
	if err != nil {
		hpbrcu.Close(m, closeTimeout)
		return nil, err
	}
	srv, err := server.New(server.Config{
		Map:  m,
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	})
	if err != nil {
		hpbrcu.Close(m, closeTimeout)
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		hpbrcu.Close(m, closeTimeout)
		return nil, err
	}

	in := &instance{m: m, models: models}
	ccs := make([]*csClient, 0, csClients)
	in.close = func() error {
		for _, c := range ccs {
			c.conn.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		for _, c := range ccs {
			if c.err != nil && err == nil {
				err = fmt.Errorf("client %d: %w", c.id, c.err)
			}
		}
		return err
	}
	for i := 0; i < csClients; i++ {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			in.close()
			return nil, err
		}
		kc := &kvClient{id: i, stride: csClients, m: m, stream: streams[i], model: models[i]}
		ccs = append(ccs, &csClient{kvClient: kc, conn: conn, rd: bufio.NewReader(conn), buf: make([]byte, 0, 64)})
		in.clients = append(in.clients, ccs[i])
	}

	in.trace = func(res *result, o options, l layers) {
		wire := make(spanSet, csClients)
		for i, c := range ccs {
			wire[i] = newTracer(i)
			c.tr = wire[i]
		}
		inflightRejects := func() int64 { return srv.ServiceStats()["InflightRejects"].(int64) }
		rej0 := inflightRejects()
		res.tracedPhase(l, o, m, in.clients, wire)
		l["server.inflight_rejects"] = float64(inflightRejects() - rej0)
		l.addSpans(wire, map[string]spanName{
			"server.get_rtt_ns": spanServerGet,
			"server.set_rtt_ns": spanServerSet,
		})

		// The same key streams in process, through the facade and its
		// steps, on the server's map while the connections idle.
		kcs := make([]*kvClient, csClients)
		for i, c := range ccs {
			kcs[i] = c.kvClient
		}
		replay := res.runReplay(l, o, m, kcs)
		l.addSpans(replay, map[string]spanName{
			"hpbrcu.get_ns":    spanFacadeGet,
			"hpbrcu.insert_ns": spanFacadeInsert,
			"hpbrcu.remove_ns": spanFacadeRemove,
		})
		l["server.overhead_ns"] = l["server.get_rtt_ns"] - l["hpbrcu.get_ns"]
		res.writeSpans(map[string]spanSet{"wire": wire, "replay": replay})
	}
	return in, nil
}

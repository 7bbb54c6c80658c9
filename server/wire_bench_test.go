package server

// Wire-edge benchmarks, the ISSUE 9 acceptance gauge: the binary protocol
// must at least double the HTTP edge's WAL-backed throughput. Like the
// HTTP benchmarks (nullResponseWriter), the conn is a discard sink, so the
// measured cost is frame decode + session query (+ journaling) + frame
// encode — the serving stack, not loopback TCP.

import (
	"sync/atomic"
	"testing"

	"github.com/dpgo/svt/wire"
)

// benchWire drives single-query frames through the wire handler across the
// session pool: per-goroutine connections (as in production, where each
// client holds its own), pre-encoded request bodies, pooled everything.
func benchWire(b *testing.B, m *SessionManager, ids []string, sessions int, cfg WireConfig) {
	b.Helper()
	ws := NewWireServer(m, cfg)
	bodies := make([][]byte, len(ids))
	for j, id := range ids {
		bodies[j] = wire.AppendQueryBody(nil, id, "", []wire.QueryItem{{Query: 1}})
	}
	var next atomic.Uint64
	mt := startMem()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := ws.newConn(discardConn{})
		i := int(next.Add(1)) * 7
		for pb.Next() {
			i++
			if err := c.handleOp(wire.OpQuery, 1, bodies[i%len(ids)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	recordBench(b, mt, sessions, 16)
}

// BenchmarkWireQueryParallel is the wire twin of BenchmarkHTTPQueryParallel.
func BenchmarkWireQueryParallel(b *testing.B) {
	const sessions = 64
	m, ids := benchManager(b, 16, sessions)
	benchWire(b, m, ids, sessions, WireConfig{})
}

// BenchmarkWireQueryParallelWAL is the wire twin of
// BenchmarkHTTPQueryParallelWAL — every answered batch journaled before
// the response frame is encoded. The benchgate holds this at >= 2x the
// HTTP WAL edge.
func BenchmarkWireQueryParallelWAL(b *testing.B) {
	const sessions = 64
	m, ids := benchManagerWAL(b, 16, sessions)
	b.SetParallelism(walParallelism)
	benchWire(b, m, ids, sessions, WireConfig{})
}

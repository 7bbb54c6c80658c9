package client_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/server"
	"github.com/dpgo/svt/store"
)

// BenchmarkClientQueryParallel is the SDK rung of the benchmark ladder:
// 64 callers share one Client and send one-query Query calls over
// loopback TCP into an in-process WireServer, whose manager journals to
// store.Mem. server's BenchmarkWireQueryParallel drives the same wire
// handler on a discard conn, so the gap between the two is the client,
// the socket and the hand-offs between goroutines. allocs/op counts both
// sides of the round trip.
func BenchmarkClientQueryParallel(b *testing.B) {
	const sessions = 64
	m, err := server.Open(server.ManagerConfig{Store: store.NewMem(), SweepInterval: time.Hour, SnapshotInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
	addr, _ := serveManager(b, m, server.WireConfig{})
	c := dial(b, addr, client.Options{})
	ids := make([]string, sessions)
	for i := range ids {
		sess, err := c.Create(neverHalting())
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = sess.ID
	}
	var next atomic.Uint64
	b.SetParallelism(max(1, 64/runtime.GOMAXPROCS(0)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		items := []client.QueryItem{{Query: 0}}
		i := int(next.Add(1)) * 7
		for pb.Next() {
			i++
			if _, err := c.Query(ids[i%sessions], items); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

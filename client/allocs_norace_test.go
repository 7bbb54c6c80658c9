//go:build !race

package client_test

import (
	"testing"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/server"
)

// TestClientQueryAllocs pins one Query round trip at 12 allocations,
// counted over the whole process: the SDK call and the in-memory
// WireServer answering it together. Race builds are left out: sync.Pool
// drops items at random there, which inflates the server's count.
func TestClientQueryAllocs(t *testing.T) {
	const budget = 12
	addr, _ := startServer(t, server.WireConfig{})
	c := dial(t, addr, client.Options{})
	sess, err := c.Create(neverHalting())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	items := []client.QueryItem{{Query: 0}}
	run := func() {
		if _, err := c.Query(sess.ID, items); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools and the connection's intern cache
	if got := testing.AllocsPerRun(200, run); got > budget {
		t.Fatalf("one Query round trip allocates %.2f/op, budget %d", got, budget)
	}
}

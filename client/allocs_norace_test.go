//go:build !race

package client_test

import (
	"testing"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/server"
)

// TestClientQueryAllocs pins one Query round trip at 5 allocations,
// counted over the whole process: the SDK call and the in-memory
// WireServer answering it together. The client makes three, the values
// Query returns: the *BatchResult, its Results slice and its RequestID
// string. The server makes two: the session-ID string and the request ID
// it mints. Race builds are left out: sync.Pool drops items at random
// there, which inflates both sides' counts.
func TestClientQueryAllocs(t *testing.T) {
	const budget = 5
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
	run() // warm the pools
	if got := testing.AllocsPerRun(200, run); got > budget {
		t.Fatalf("one Query round trip allocates %.2f/op, budget %d", got, budget)
	}
}

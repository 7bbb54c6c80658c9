//go:build !race

package main

import "testing"

// TestProbeAllocatesNothing pins what probeWork promises: no allocation,
// so the program's own allocation rate cannot move the probe through GC
// assists. Race builds are left out: sync.Pool, which json.Valid takes
// its scanner from, drops items at random there.
func TestProbeAllocatesNothing(t *testing.T) {
	buf := probeWork(nil)
	if n := testing.AllocsPerRun(20, func() { buf = probeWork(buf) }); n != 0 {
		t.Errorf("probeWork allocates %v times a call, want 0", n)
	}
}

package mech

import "testing"

// TestBitIdentical needs exact comparison: replay tests pin bit-identical
// streams, so _test.go files are exempt.
func TestBitIdentical(t *testing.T) {
	a, b := 0.1+0.2, 0.1+0.2
	if a != b {
		t.Fatal("streams diverged")
	}
}

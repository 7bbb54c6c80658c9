package server

// SameLatency is outside mech/ and audit/: not budget arithmetic, not
// flagged.
func SameLatency(a, b float64) bool { return a == b }

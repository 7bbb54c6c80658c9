package pmw

import "math/rand" // want `privacy-critical package "pmw" imports "math/rand"`

// Noise draws unseeded, unjournaled noise: exactly the bug class seededrand
// exists to catch.
func Noise() float64 { return rand.Float64() }

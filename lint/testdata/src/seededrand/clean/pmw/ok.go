package pmw

import "svtfix/internal/rng"

// Noise draws through the journaled source — the sanctioned path.
func Noise(src *rng.Source) float64 {
	return float64(src.Uint64()%1000) / 1000
}

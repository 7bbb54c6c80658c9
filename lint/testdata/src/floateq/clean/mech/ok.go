package mech

import "math"

const tol = 1e-9

// Exhausted restates the condition as an inequality.
func Exhausted(eps, spent float64) bool { return spent >= eps-tol }

// Close compares with an explicit tolerance.
func Close(a, b float64) bool { return math.Abs(a-b) <= tol }

// Ints may compare exactly.
func SameCount(a, b int) bool { return a == b }

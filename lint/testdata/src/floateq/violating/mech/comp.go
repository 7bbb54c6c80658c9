package mech

// Exhausted compares accumulated epsilon exactly: diverges after a handful
// of compositions.
func Exhausted(eps, spent float64) bool {
	if spent == eps { // want `floating-point == comparison`
		return true
	}
	return remaining(eps, spent) != 0 // want `floating-point != comparison`
}

func remaining(eps, spent float64) float64 { return eps - spent }

// Mode switches on a float: an implicit exact-equality chain.
func Mode(x float64) int {
	switch x { // want `switch on a floating-point value`
	case 0:
		return 0
	}
	return 1
}

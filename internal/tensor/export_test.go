package tensor

import "testing"

// CountLoopCalls wraps every simd loop to count its calls, under its field's
// name, until the test ends; nil when this CPU has no simd loops. It is how
// layers_test.go, outside the package, sees which loops a layer reaches.
func CountLoopCalls(tb testing.TB) map[string]int {
	if simd == nil {
		return nil
	}
	old := simd
	tb.Cleanup(func() { simd = old })
	calls := map[string]int{}
	simd = countedLoops(simd, calls)
	return calls
}

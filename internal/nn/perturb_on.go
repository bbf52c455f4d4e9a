//go:build schedperturb

package nn

import (
	"runtime"
	"sync/atomic"
)

// Built with -tags schedperturb, every handoff point of the lane yields the
// processor at one call in four, 1 to 64 times in a row, both drawn from a
// seeded stream. A run of yields holds the goroutine back for microseconds,
// long enough for the other side of a handoff to act, so that repeated
// test runs (check.sh runs them at -cpu 2,4 under -race) reach interleavings
// a free-running schedule rarely takes: a post landing between the lane's
// decision to park and its re-check, a forward's wake racing the park.

const perturbSeed = 0x9e3779b97f4a7c15

var perturbCalls atomic.Uint64

// perturb yields as the next draw of the stream says (splitmix64 of the
// seed and the call's number).
func perturb() {
	z := perturbSeed + perturbCalls.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z&3 != 0 {
		return
	}
	for n := z>>2&63 + 1; n > 0; n-- {
		runtime.Gosched()
	}
}

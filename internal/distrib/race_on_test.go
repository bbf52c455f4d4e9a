//go:build race

package distrib

// raceEnabled reports whether the race detector is active. The allocation
// gates skip under it: the runtime makes sync.Pool drop cached items when
// racing, so the training scratch arena allocates afresh and a round's
// allocation volume no longer isolates the wire's vectors.
const raceEnabled = true

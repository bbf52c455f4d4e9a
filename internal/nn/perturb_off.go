//go:build !schedperturb

package nn

// perturb marks the lane's handoff points: post, join, the gate's wait, the
// park and its re-check, and a forward's wake. It does nothing unless the
// package is built with -tags schedperturb (perturb_on.go).
func perturb() {}

package fedpkd

import (
	"fedpkd/internal/obs"
)

// Observability types, aliased from internal/obs so downstream users import
// only this package. A Recorder collects per-round phase timings, per-client
// training durations, wire-byte counters, and parallelism stats; attach one
// through RunSpec.Recorder:
//
//	rec := fedpkd.NewRecorder(algo.Name())
//	_, _ = fedpkd.Configure(algo, fedpkd.RunSpec{Recorder: rec})
//	history, _ := algo.Run(rounds)
//	_, _, _ = rec.DumpFiles("results", "fedpkd")
type (
	// Recorder collects round-level traces; all methods are safe on a nil
	// receiver, so instrumented code pays one pointer test when disabled.
	Recorder = obs.Recorder
	// RoundTrace is one round's observability record.
	RoundTrace = obs.RoundTrace
	// DebugServer serves pprof and expvar endpoints for a running simulation.
	DebugServer = obs.DebugServer
)

// NewRecorder builds a recorder for the named algorithm.
func NewRecorder(algo string) *Recorder { return obs.NewRecorder(algo) }

// StartDebugServer exposes /debug/pprof/* and /debug/vars on addr (e.g.
// "localhost:6060"). Close the returned server to release the listener.
func StartDebugServer(addr string) (*DebugServer, error) { return obs.StartDebugServer(addr) }

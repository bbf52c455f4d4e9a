package fedpkd

import (
	"time"

	"fedpkd/internal/ctl"
	"fedpkd/internal/distrib"
	"fedpkd/internal/fl/engine"
)

// Long-lived service surface: the client registry and availability-trace
// churn from internal/distrib, and the operator control plane from
// internal/ctl, re-exported for cmd/fedpkd-sim's serve mode and external
// embedders.
type (
	// Service is the persistent form of the distributed runtime: a client
	// registry, live cohort churn, and barrier hooks for the control plane.
	Service = distrib.Service
	// AvailabilityTrace is the seeded diurnal connect/disconnect model churn
	// runs sample their cohorts from.
	AvailabilityTrace = engine.AvailabilityTrace
	// ControlGate synchronizes pause/resume/save/quit with round barriers.
	ControlGate = ctl.Gate
	// ControlStatus is what the control plane's ping command reports: the
	// service's Status plus the run length and the gate's state.
	ControlStatus = ctl.Status
	// ControlResponse is the JSON reply to one control command.
	ControlResponse = ctl.Response
	// ControlServer serves the pause/ping/resume/save/quit line protocol
	// over a local socket.
	ControlServer = ctl.Server
)

// ErrControlQuit is returned from a serve-mode run stopped by an operator's
// quit command; treat it as a clean shutdown.
var ErrControlQuit = ctl.ErrQuit

// NewService builds a long-lived distributed service for an engine-backed
// algorithm without running it: the caller wires a control plane to
// Options.Barrier, then calls Run and Close. Most callers want
// RunDistributed instead, which manages the service lifecycle itself.
func NewService(algo Algorithm, opts DistributedOptions) (*Service, error) {
	return distrib.NewService(algo, opts)
}

// NewControlGate returns a gate whose save command runs saveFn at the next
// round barrier.
func NewControlGate(saveFn func() (string, error)) *ControlGate {
	return ctl.NewGate(saveFn)
}

// ServeControl starts the operator control plane on addr (a unix socket
// path, or a TCP host:port) answering pause/ping/status/resume/save/quit.
func ServeControl(addr string, gate *ControlGate, status func() ControlStatus) (*ControlServer, error) {
	return ctl.Serve(addr, gate, status)
}

// ControlSend issues one control command against a running service's socket
// and returns the parsed response — the client side of `-ctl-cmd`.
func ControlSend(addr, cmd string, timeout time.Duration) (ControlResponse, error) {
	return ctl.Send(addr, cmd, timeout)
}

// ParsePopulation parses a comma-separated id list like "0,2,5" into a
// sorted Options.Population slice; the empty spec returns nil (whole fleet).
func ParsePopulation(spec string, n int) ([]int, error) {
	return distrib.ParsePopulation(spec, n)
}

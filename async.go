package fedpkd

import (
	"fedpkd/internal/fl/engine"
)

// Asynchronous-execution facade. In async mode the server never waits for
// the full cohort: it aggregates a buffer of the first K arrivals, weights
// each update by its staleness (1/(1+s)^α), refreshes only the contributors,
// and moves on. Client arrivals run on a seeded logical clock — a pure
// function of (seed, client, model version) — so async runs replay
// byte-identically across repeats and across transports (DESIGN.md §3).

// Async-execution types, aliased for the public surface.
type (
	// AsyncOptions configures the barrier-free execution mode: buffer size,
	// staleness exponent, and the arrival schedule.
	AsyncOptions = engine.AsyncOptions
	// ArrivalSchedule is the seeded logical clock deciding when each client's
	// update arrives.
	ArrivalSchedule = engine.ArrivalSchedule
)

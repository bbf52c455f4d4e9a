package fl

import "fmt"

// RoundMetrics is the measured state after one communication round.
type RoundMetrics struct {
	Round int
	// ServerAcc is S_acc: server-model accuracy on the global test set.
	// NaN-free: algorithms without a server model record -1.
	ServerAcc float64
	// ClientAcc is C_acc: mean client-model accuracy on the personalized
	// local test sets. Algorithms that do not track client models record -1.
	ClientAcc float64
	// CumulativeMB is the total traffic (up + down, all clients) through the
	// end of this round.
	CumulativeMB float64
}

// DegradedRound records one round that aggregated fewer client uploads than
// it expected — whether from the in-process engine's simulated dropout or
// from real timeouts/crashes in the distributed runtime.
type DegradedRound struct {
	// Round is the round index.
	Round int
	// Cohort is the number of uploads aggregated; Expected is the cohort size
	// the round started with.
	Cohort   int
	Expected int
	// Missing lists the client ids whose uploads did not make the round,
	// sorted ascending so records are deterministic.
	Missing []int `json:",omitempty"`
	// LostShards lists the aggregator-tree shards whose digest never made the
	// round's merge (crashed leaf, late or corrupt digest), sorted ascending.
	// Nil for flat rounds and healthy tree rounds, so those histories
	// serialize exactly as before the tier fault model existed.
	LostShards []int `json:",omitempty"`
}

// AsyncFlush records one buffer flush of an asynchronous run: which clients'
// updates the server aggregated, how stale each was, and the logical time at
// which the flush completed (the run's simulated wall-clock).
type AsyncFlush struct {
	// Flush is the flush index (async runs reuse the round counter).
	Flush int
	// Clock is the logical arrival-schedule time the flush completed at.
	Clock uint64
	// Contributors lists the client ids whose uploads were aggregated, sorted
	// ascending.
	Contributors []int `json:",omitempty"`
	// Staleness[i] is Contributors[i]'s staleness s = flush − version of the
	// global it trained against (0 = fresh).
	Staleness []int `json:",omitempty"`
}

// History is the per-round trace of one algorithm run.
type History struct {
	// Algo names the algorithm ("FedPKD", "FedAvg", ...).
	Algo string
	// Dataset names the task ("SynthC10", ...).
	Dataset string
	// Setting describes the partition ("dirichlet(α=0.1)", ...).
	Setting string
	Rounds  []RoundMetrics
	// Degraded lists rounds that completed with a partial cohort. Nil when
	// every round aggregated its full cohort, so healthy runs serialize
	// exactly as before the failure model existed.
	Degraded []DegradedRound `json:",omitempty"`
	// Flushes lists an async run's buffer flushes, one per round entry. Nil
	// for synchronous runs, so their histories serialize exactly as before
	// the async mode existed.
	Flushes []AsyncFlush `json:",omitempty"`
}

// Add appends one round's metrics.
func (h *History) Add(m RoundMetrics) {
	h.Rounds = append(h.Rounds, m)
}

// AddDegraded records a partial-cohort round. Callers only invoke it when
// Cohort < Expected, keeping healthy histories byte-identical to the
// pre-failure-model format.
func (h *History) AddDegraded(d DegradedRound) {
	h.Degraded = append(h.Degraded, d)
}

// AddFlush records one async buffer flush.
func (h *History) AddFlush(f AsyncFlush) {
	h.Flushes = append(h.Flushes, f)
}

// FinalClock returns the logical completion time of the last recorded flush
// — an async run's simulated wall-clock. Zero for synchronous histories.
func (h *History) FinalClock() uint64 {
	if len(h.Flushes) == 0 {
		return 0
	}
	return h.Flushes[len(h.Flushes)-1].Clock
}

// DegradedCount returns the number of partial-cohort rounds recorded.
func (h *History) DegradedCount() int { return len(h.Degraded) }

// Len returns the number of recorded rounds.
func (h *History) Len() int { return len(h.Rounds) }

// FinalServerAcc returns the last round's server accuracy (-1 when absent).
func (h *History) FinalServerAcc() float64 {
	if len(h.Rounds) == 0 {
		return -1
	}
	return h.Rounds[len(h.Rounds)-1].ServerAcc
}

// FinalClientAcc returns the last round's mean client accuracy (-1 when
// absent).
func (h *History) FinalClientAcc() float64 {
	if len(h.Rounds) == 0 {
		return -1
	}
	return h.Rounds[len(h.Rounds)-1].ClientAcc
}

// MBToServerAcc returns the cumulative traffic at the first round whose
// server accuracy reaches target, and whether the target was ever reached —
// the Table I communication-efficiency metric.
func (h *History) MBToServerAcc(target float64) (float64, bool) {
	for _, r := range h.Rounds {
		if r.ServerAcc >= target {
			return r.CumulativeMB, true
		}
	}
	return 0, false
}

// RoundsToServerAcc returns the first round index whose server accuracy
// reaches target, and whether it was ever reached.
func (h *History) RoundsToServerAcc(target float64) (int, bool) {
	for _, r := range h.Rounds {
		if r.ServerAcc >= target {
			return r.Round, true
		}
	}
	return 0, false
}

// MBToClientAcc is MBToServerAcc for the client-accuracy metric.
func (h *History) MBToClientAcc(target float64) (float64, bool) {
	for _, r := range h.Rounds {
		if r.ClientAcc >= target {
			return r.CumulativeMB, true
		}
	}
	return 0, false
}

// TotalMB returns the cumulative traffic after the final round.
func (h *History) TotalMB() float64 {
	if len(h.Rounds) == 0 {
		return 0
	}
	return h.Rounds[len(h.Rounds)-1].CumulativeMB
}

// String summarizes the run for logs.
func (h *History) String() string {
	return fmt.Sprintf("%s on %s [%s]: %d rounds, S_acc=%.4f C_acc=%.4f, %.2f MB",
		h.Algo, h.Dataset, h.Setting, h.Len(), h.FinalServerAcc(), h.FinalClientAcc(), h.TotalMB())
}

// Algorithm is one federated-learning method run end to end. Implementations
// live in internal/core (FedPKD) and internal/baselines.
type Algorithm interface {
	// Name returns the algorithm's display name.
	Name() string
	// Run executes the given number of communication rounds and returns the
	// per-round history.
	Run(rounds int) (*History, error)
}

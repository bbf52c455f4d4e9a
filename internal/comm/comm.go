// Package comm models the communication cost of federated learning: the
// wire size of every message kind the algorithms exchange (model updates,
// logits, prototypes), the payload codecs that set those sizes on the wire,
// and a thread-safe per-round ledger — the run's one byte counter, which
// calls nothing outside this package. The paper's Fig. 3 and Table I, and
// the byte columns of every round trace, are computed from it.
package comm

import "sync"

// BytesPerValue is the wire width of one scalar. Models and knowledge are
// transferred as float32, matching the paper's accounting (a ResNet20
// update is reported as 0.511 MB ≈ 4 bytes/param).
const BytesPerValue = 4

// MB is the number of bytes per megabyte used in reporting (10^6, matching
// the paper's MB figures).
const MB = 1e6

// LogitsBytes returns the wire size of per-sample logits for a public set.
func LogitsBytes(samples, classes int) int {
	return samples * classes * BytesPerValue
}

// ModelBytes returns the wire size of a model update with paramCount scalar
// parameters.
func ModelBytes(paramCount int) int {
	return paramCount * BytesPerValue
}

// SampleIndexBytes returns the wire size of a set of sample indices (the
// server tells clients which filtered public samples the logits refer to).
// Indices travel as uint32.
func SampleIndexBytes(samples int) int {
	return samples * 4
}

// RoundTraffic is the measured traffic of one communication round.
type RoundTraffic struct {
	Round    int
	Upload   int64 // client -> server bytes, summed over clients
	Download int64 // server -> client bytes, summed over clients
	// Control is control-plane traffic: round-start/round-end envelopes that
	// carry no knowledge payload, reconnect handshakes, and other protocol
	// framing. The in-process analytic model records none (its messages are
	// pure knowledge); the distributed runtime bills every control envelope
	// here so wire totals stay honest.
	Control int64
	// RawUpload and RawDownload are the uncompressed-equivalent bytes of the
	// same traffic: what Upload/Download would have been under the
	// float64raw codec. Zero when no compressing codec is active (the
	// compressed and raw prices coincide, and nothing tracks them
	// separately). They are informational — Total() never includes them.
	RawUpload   int64
	RawDownload int64
	// TierUp and TierDown are aggregator-tree backhaul: leaf→root shard
	// digests and root→leaf shard assignments when the run uses a
	// hierarchical topology. They are a separate billing plane from the
	// client↔leaf columns above — a tree run bills its client traffic in
	// Upload/Download/Control exactly as a flat run bills client↔server —
	// so Total() excludes them and the legacy ledger stays byte-identical
	// between flat and tree runs of the same configuration. Zero for flat
	// runs.
	TierUp   int64
	TierDown int64
}

// Total returns upload + download + control.
func (r RoundTraffic) Total() int64 { return r.Upload + r.Download + r.Control }

// Ledger accumulates traffic measurements across rounds. It is safe for
// concurrent use: parallel clients record their uploads simultaneously.
// It is the run's only byte counter: round traces (internal/obs) copy a
// round's row from it when the round closes. The zero value is NOT ready to
// use; call NewLedger.
type Ledger struct {
	mu     sync.Mutex
	rounds []RoundTraffic
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{}
}

// StartRound begins accounting for the given round number.
func (l *Ledger) StartRound(round int) {
	l.mu.Lock()
	l.rounds = append(l.rounds, RoundTraffic{Round: round})
	l.mu.Unlock()
}

// AddUpload records client→server traffic in the current round.
func (l *Ledger) AddUpload(bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mustCurrent().Upload += int64(bytes)
}

// AddDownload records server→client traffic in the current round.
func (l *Ledger) AddDownload(bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mustCurrent().Download += int64(bytes)
}

// AddControl records control-plane traffic (payload-free round framing,
// reconnect handshakes) in the current round.
func (l *Ledger) AddControl(bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mustCurrent().Control += int64(bytes)
}

// AddUploadRaw records client→server traffic of wire bytes on the wire that
// a float64raw encoding would have priced at raw bytes — the pair a
// compressing codec reports so compression ratios stay auditable per round.
func (l *Ledger) AddUploadRaw(wire, raw int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.mustCurrent()
	cur.Upload += int64(wire)
	cur.RawUpload += int64(raw)
}

// AddDownloadRaw records server→client traffic with its raw-equivalent
// size, like AddUploadRaw.
func (l *Ledger) AddDownloadRaw(wire, raw int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.mustCurrent()
	cur.Download += int64(wire)
	cur.RawDownload += int64(raw)
}

// AddTierUp records leaf→root backhaul (a shard digest) in the current
// round's tier columns. Tier traffic never enters Total(): it is the
// additional wire a hierarchy spends, reported next to — not inside — the
// client-plane totals.
func (l *Ledger) AddTierUp(bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mustCurrent().TierUp += int64(bytes)
}

// AddTierDown records root→leaf backhaul (a shard assignment or shard end)
// in the current round's tier columns, like AddTierUp.
func (l *Ledger) AddTierDown(bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mustCurrent().TierDown += int64(bytes)
}

// mustCurrent returns the open round's row. Callers hold l.mu and release it
// in a defer, so the panic before the first StartRound leaves the ledger
// usable.
func (l *Ledger) mustCurrent() *RoundTraffic {
	if len(l.rounds) == 0 {
		panic("comm: ledger used before StartRound")
	}
	return &l.rounds[len(l.rounds)-1]
}

// Restore replaces the ledger's contents with the given per-round records
// (copied), so a resumed run continues cumulative byte accounting exactly
// where the checkpointed run stopped.
func (l *Ledger) Restore(rounds []RoundTraffic) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rounds = make([]RoundTraffic, len(rounds))
	copy(l.rounds, rounds)
}

// Row returns the newest record of the given round and whether one exists.
// It scans back from the newest row, so reading the round just played costs
// one step however long the run has been.
func (l *Ledger) Row(round int) (RoundTraffic, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.rounds) - 1; i >= 0; i-- {
		if l.rounds[i].Round == round {
			return l.rounds[i], true
		}
	}
	return RoundTraffic{}, false
}

// Rounds returns a copy of the per-round traffic records.
func (l *Ledger) Rounds() []RoundTraffic {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RoundTraffic, len(l.rounds))
	copy(out, l.rounds)
	return out
}

// TotalBytes returns all traffic recorded so far.
func (l *Ledger) TotalBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, r := range l.rounds {
		total += r.Total()
	}
	return total
}

// TotalMB returns all traffic in megabytes.
func (l *Ledger) TotalMB() float64 {
	return float64(l.TotalBytes()) / MB
}

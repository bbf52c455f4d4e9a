package fedpkd

import (
	"fedpkd/internal/fl/engine"
)

// Checkpoint/resume facade. Every algorithm in this package runs on the
// shared round engine, which owns the run-state contract (DESIGN.md §6): a
// checkpoint is one versioned, checksummed file bundling the round counter,
// per-round history, ledger traffic, and every model's weights and optimizer
// state. A run restored from a checkpoint continues bit-identically to one
// that was never interrupted.

// SaveCheckpoint durably writes the algorithm's full run state into dir and
// returns the written path.
func SaveCheckpoint(algo Algorithm, dir string) (string, error) {
	r, err := engine.Of(algo)
	if err != nil {
		return "", err
	}
	return r.SaveCheckpoint(dir)
}

// CompletedRounds returns how many rounds the algorithm has completed
// (including rounds restored from a checkpoint).
func CompletedRounds(algo Algorithm) (int, error) {
	r, err := engine.Of(algo)
	if err != nil {
		return 0, err
	}
	return r.CurrentRound(), nil
}

// RunAlgorithmUntil runs in-process until the run has completed total
// rounds: a fresh algorithm runs all of them, a resumed one only the
// remainder. Returns the cumulative history.
func RunAlgorithmUntil(algo Algorithm, total int) (*History, error) {
	r, err := engine.Of(algo)
	if err != nil {
		return nil, err
	}
	return r.RunUntil(total)
}

package expt

import (
	"fmt"
	"path/filepath"
	"strings"

	"fedpkd/internal/ckpt"
)

// forRun narrows a sweep's spec to one of its runs. When checkpointing is
// armed, the run checkpoints into its own subdirectory of the spec's root
// (named after algorithm, task, setting, and seed; sanitized so settings like
// "dirichlet(α=0.5)" stay filesystem-safe) and — when the spec asks for a
// resume — continues from the newest valid checkpoint found there, so an
// interrupted sweep picks up where it left off instead of recomputing
// finished rounds. A run that left no checkpoint starts fresh.
func (s RunSpec) forRun(name string, task Task, setting Setting, seed uint64, hetero bool) RunSpec {
	resume := s.Resume != ""
	s.Resume = ""
	if s.CheckpointDir == "" || s.CheckpointEvery <= 0 {
		return s
	}
	label := fmt.Sprintf("%s_%s_%s_s%d", name, task, setting.Label, seed)
	if hetero {
		label += "_hetero"
	}
	label = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, label)
	s.CheckpointDir = filepath.Join(s.CheckpointDir, label)
	if resume {
		if found, _ := filepath.Glob(filepath.Join(s.CheckpointDir, "ckpt-*"+ckpt.FileExt)); len(found) > 0 {
			s.Resume = s.CheckpointDir
		}
	}
	return s
}

package baselines

import (
	"fmt"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/nn"
	"fedpkd/internal/proto"
)

// Snapshot/Restore hooks: each baseline captures exactly the state its round
// loop carries across rounds — client networks and optimizers (Adam moments
// included), any server model and its optimizer, and the algorithm's
// cross-round aggregate (flat global weights or a prototype set). Transient
// per-round values (uploads, consensus logits) are recomputed and never
// checkpointed. Section names live under the algorithm's own namespace; the
// engine reserves "engine.*".

// putFloatsSection writes a flat float64 vector as its own section.
func putFloatsSection(d *ckpt.Dict, section string, v []float64) {
	d.Section(section).F64s(v)
}

// getFloatsSection reads a vector written by putFloatsSection.
func getFloatsSection(d *ckpt.Dict, section string) ([]float64, error) {
	b, err := d.MustGet(section)
	if err != nil {
		return nil, err
	}
	dec := ckpt.NewDec(b)
	v := dec.F64s()
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("baselines: section %q: %w", section, err)
	}
	return v, nil
}

// putProtoSection writes a nullable prototype set: no section means nil.
func putProtoSection(d *ckpt.Dict, section string, s *proto.Set) {
	if s != nil {
		s.Encode(d.Section(section))
	}
}

// getProtoSection reads a set written by putProtoSection; absent section
// decodes to nil.
func getProtoSection(d *ckpt.Dict, section string) (*proto.Set, error) {
	b, ok := d.Get(section)
	if !ok {
		return nil, nil
	}
	s, err := proto.DecodeSet(b)
	if err != nil {
		return nil, fmt.Errorf("baselines: section %q: %w", section, err)
	}
	return s, nil
}

// Snapshot implements engine.Hooks: client fleet plus the global weight
// vector. The eval net is derived state (it always holds the global
// weights), so it is not serialized separately.
func (h *fedAvgHooks) Snapshot(d *ckpt.Dict) error {
	nn.SnapshotFleetSections(d, "clients", h.clients, h.opts)
	putFloatsSection(d, "fedavg.global", h.global)
	return nil
}

// Restore implements engine.Hooks.
func (h *fedAvgHooks) Restore(d *ckpt.Dict) error {
	if err := nn.RestoreFleetSections(d, "clients", h.clients, h.opts); err != nil {
		return err
	}
	global, err := getFloatsSection(d, "fedavg.global")
	if err != nil {
		return err
	}
	if err := nn.SetFlatParams(h.evalNet.Params(), global); err != nil {
		return fmt.Errorf("baselines: restore global weights: %w", err)
	}
	h.global = global
	return nil
}

// Snapshot implements engine.Hooks: FedMD/DS-FL state is the client fleet
// alone — the logit consensus is transient.
func (h *fedMDHooks) Snapshot(d *ckpt.Dict) error {
	nn.SnapshotFleetSections(d, "clients", h.clients, h.opts)
	return nil
}

// Restore implements engine.Hooks.
func (h *fedMDHooks) Restore(d *ckpt.Dict) error {
	return nn.RestoreFleetSections(d, "clients", h.clients, h.opts)
}

// Snapshot implements engine.Hooks: client fleet plus the fused global
// weights. The server model is derived state (Aggregate leaves it equal to
// the global vector), and the server optimizer is recreated each round, so
// neither is serialized separately.
func (h *fedDFHooks) Snapshot(d *ckpt.Dict) error {
	nn.SnapshotFleetSections(d, "clients", h.clients, h.opts)
	putFloatsSection(d, "feddf.global", h.global)
	return nil
}

// Restore implements engine.Hooks.
func (h *fedDFHooks) Restore(d *ckpt.Dict) error {
	if err := nn.RestoreFleetSections(d, "clients", h.clients, h.opts); err != nil {
		return err
	}
	global, err := getFloatsSection(d, "feddf.global")
	if err != nil {
		return err
	}
	if err := nn.SetFlatParams(h.server.Params(), global); err != nil {
		return fmt.Errorf("baselines: restore fused weights: %w", err)
	}
	h.global = global
	return nil
}

// Snapshot implements engine.Hooks: client fleet plus the server model and
// its persistent optimizer.
func (h *fedETHooks) Snapshot(d *ckpt.Dict) error {
	nn.SnapshotFleetSections(d, "clients", h.clients, h.opts)
	nn.SnapshotModelSection(d, "server", h.server, h.serverOpt)
	return nil
}

// Restore implements engine.Hooks.
func (h *fedETHooks) Restore(d *ckpt.Dict) error {
	if err := nn.RestoreFleetSections(d, "clients", h.clients, h.opts); err != nil {
		return err
	}
	return nn.RestoreModelSection(d, "server", h.server, h.serverOpt)
}

// Snapshot implements engine.Hooks: client fleet plus the nullable global
// prototype set (absent before the first aggregation).
func (h *fedProtoHooks) Snapshot(d *ckpt.Dict) error {
	nn.SnapshotFleetSections(d, "clients", h.clients, h.opts)
	putProtoSection(d, "fedproto.global", h.global)
	return nil
}

// Restore implements engine.Hooks.
func (h *fedProtoHooks) Restore(d *ckpt.Dict) error {
	if err := nn.RestoreFleetSections(d, "clients", h.clients, h.opts); err != nil {
		return err
	}
	global, err := getProtoSection(d, "fedproto.global")
	if err != nil {
		return err
	}
	h.global = global
	return nil
}

// Snapshot implements engine.Hooks: client fleet plus the server model and
// its persistent optimizer.
func (h *vanillaKDHooks) Snapshot(d *ckpt.Dict) error {
	nn.SnapshotFleetSections(d, "clients", h.clients, h.opts)
	nn.SnapshotModelSection(d, "server", h.server, h.serverOpt)
	return nil
}

// Restore implements engine.Hooks.
func (h *vanillaKDHooks) Restore(d *ckpt.Dict) error {
	if err := nn.RestoreFleetSections(d, "clients", h.clients, h.opts); err != nil {
		return err
	}
	return nn.RestoreModelSection(d, "server", h.server, h.serverOpt)
}

package core

import (
	"fmt"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/nn"
	"fedpkd/internal/proto"
)

// Snapshot implements engine.Hooks: the FedPKD run state is the client
// fleet (networks + Adam moments), the server model with its persistent
// optimizer, and the nullable global prototype set (absent before the first
// aggregation). Everything else a round produces — logits, pseudo-labels,
// the filtered subset — is transient and recomputed.
func (h *pkdHooks) Snapshot(d *ckpt.Dict) error {
	nn.SnapshotFleetSections(d, "clients", h.clients, h.clientOpts)
	nn.SnapshotModelSection(d, "server", h.server, h.serverOpt)
	if h.globalProtos != nil {
		h.globalProtos.Encode(d.Section("fedpkd.protos"))
	}
	return nil
}

// Restore implements engine.Hooks.
func (h *pkdHooks) Restore(d *ckpt.Dict) error {
	if err := nn.RestoreFleetSections(d, "clients", h.clients, h.clientOpts); err != nil {
		return err
	}
	if err := nn.RestoreModelSection(d, "server", h.server, h.serverOpt); err != nil {
		return err
	}
	h.globalProtos = nil
	if b, ok := d.Get("fedpkd.protos"); ok {
		protos, err := proto.DecodeSet(b)
		if err != nil {
			return fmt.Errorf("core: decode global prototypes: %w", err)
		}
		h.globalProtos = protos
	}
	return nil
}

package nn

import (
	"fmt"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/tensor"
)

// StateDict is the named state contract of the nn layer: an ordered map of
// tensors and integer scalars keyed by hierarchical dotted names
// ("net.body.0.W", "opt.m3", "opt.t"). Layers, networks, and optimizers
// snapshot their mutable state into one and restore from one; the engine
// packs the encoded bytes into a ckpt.Dict section.
//
// Unlike the flat params codec (SaveParams), a StateDict captures state the
// optimizer owns — Adam first/second moments and step count, SGD momentum
// velocity — and it addresses entries by name, so restore errors can say
// exactly which tensor mismatched.
type StateDict struct {
	entries []stateEntry
	index   map[string]int
}

type stateEntry struct {
	name string
	kind byte // 't' tensor, 'i' int64

	rows, cols int
	data       []float64

	ival int64
}

// NewStateDict returns an empty state dict.
func NewStateDict() *StateDict {
	return &StateDict{index: make(map[string]int)}
}

func (sd *StateDict) put(e stateEntry) {
	if i, ok := sd.index[e.name]; ok {
		sd.entries[i] = e
		return
	}
	sd.index[e.name] = len(sd.entries)
	sd.entries = append(sd.entries, e)
}

// PutTensor stores a copy of m under name.
func (sd *StateDict) PutTensor(name string, m *tensor.Matrix) {
	data := make([]float64, len(m.Data))
	copy(data, m.Data)
	sd.put(stateEntry{name: name, kind: 't', rows: m.Rows, cols: m.Cols, data: data})
}

// PutInt stores an integer scalar under name.
func (sd *StateDict) PutInt(name string, v int64) {
	sd.put(stateEntry{name: name, kind: 'i', ival: v})
}

// Has reports whether an entry exists under name.
func (sd *StateDict) Has(name string) bool {
	_, ok := sd.index[name]
	return ok
}

// Names returns all entry names in insertion order.
func (sd *StateDict) Names() []string {
	names := make([]string, len(sd.entries))
	for i, e := range sd.entries {
		names[i] = e.name
	}
	return names
}

// Len returns the number of entries.
func (sd *StateDict) Len() int { return len(sd.entries) }

// Int returns the integer scalar stored under name.
func (sd *StateDict) Int(name string) (int64, error) {
	i, ok := sd.index[name]
	if !ok {
		return 0, fmt.Errorf("nn: state dict has no entry %q", name)
	}
	e := sd.entries[i]
	if e.kind != 'i' {
		return 0, fmt.Errorf("nn: state entry %q is a tensor, want an int scalar", name)
	}
	return e.ival, nil
}

// CopyTensorInto copies the tensor stored under name into dst, which must
// already have the matching shape. Errors name the entry and state
// expected-vs-got shapes.
func (sd *StateDict) CopyTensorInto(name string, dst *tensor.Matrix) error {
	i, ok := sd.index[name]
	if !ok {
		return fmt.Errorf("nn: state dict has no entry %q", name)
	}
	e := sd.entries[i]
	if e.kind != 't' {
		return fmt.Errorf("nn: state entry %q is an int scalar, want a tensor", name)
	}
	if e.rows != dst.Rows || e.cols != dst.Cols {
		return fmt.Errorf("nn: state entry %q is %dx%d, destination expects %dx%d",
			name, e.rows, e.cols, dst.Rows, dst.Cols)
	}
	copy(dst.Data, e.data)
	return nil
}

// Encode serializes the state dict to the ckpt binary form.
func (sd *StateDict) Encode() []byte {
	e := ckpt.NewEnc()
	e.U32(uint32(len(sd.entries)))
	for _, ent := range sd.entries {
		e.String(ent.name)
		e.U32(uint32(ent.kind))
		switch ent.kind {
		case 't':
			e.U32(uint32(ent.rows))
			e.U32(uint32(ent.cols))
			e.F64s(ent.data)
		case 'i':
			e.I64(ent.ival)
		}
	}
	return e.Buf()
}

// DecodeStateDict parses a state dict from its Encode form.
func DecodeStateDict(b []byte) (*StateDict, error) {
	d := ckpt.NewDec(b)
	n, err := d.U32()
	if err != nil {
		return nil, fmt.Errorf("nn: decode state dict: %w", err)
	}
	sd := NewStateDict()
	for i := uint32(0); i < n; i++ {
		name, err := d.String()
		if err != nil {
			return nil, fmt.Errorf("nn: decode state entry %d name: %w", i, err)
		}
		kind, err := d.U32()
		if err != nil {
			return nil, fmt.Errorf("nn: decode state entry %q kind: %w", name, err)
		}
		switch byte(kind) {
		case 't':
			rows, err := d.U32()
			if err != nil {
				return nil, fmt.Errorf("nn: decode state entry %q rows: %w", name, err)
			}
			cols, err := d.U32()
			if err != nil {
				return nil, fmt.Errorf("nn: decode state entry %q cols: %w", name, err)
			}
			data, err := d.F64s()
			if err != nil {
				return nil, fmt.Errorf("nn: decode state entry %q values: %w", name, err)
			}
			if len(data) != int(rows)*int(cols) {
				return nil, fmt.Errorf("nn: state entry %q has %d values for a %dx%d shape",
					name, len(data), rows, cols)
			}
			sd.put(stateEntry{name: name, kind: 't', rows: int(rows), cols: int(cols), data: data})
		case 'i':
			v, err := d.I64()
			if err != nil {
				return nil, fmt.Errorf("nn: decode state entry %q int: %w", name, err)
			}
			sd.put(stateEntry{name: name, kind: 'i', ival: v})
		default:
			return nil, fmt.Errorf("nn: state entry %q has unknown kind %d", name, kind)
		}
	}
	return sd, nil
}

// snapshotParams writes every parameter value under prefix.<index>.<name>.
// The index disambiguates repeated names across layers sharing a prefix (a
// layer with two params both named "gamma" cannot occur today, but the index
// also makes restore robust to name reuse).
func snapshotParams(sd *StateDict, prefix string, params []*Param) {
	for i, p := range params {
		sd.PutTensor(fmt.Sprintf("%s.%d.%s", prefix, i, p.Name), p.Value)
	}
}

// restoreParams reads parameter values written by snapshotParams.
func restoreParams(sd *StateDict, prefix string, params []*Param) error {
	for i, p := range params {
		name := fmt.Sprintf("%s.%d.%s", prefix, i, p.Name)
		if err := sd.CopyTensorInto(name, p.Value); err != nil {
			return fmt.Errorf("nn: restore param %d under %q: %w", i, prefix, err)
		}
	}
	return nil
}

// Snapshot/Restore for the parameter-owning layers. Transient training
// caches (forward buffers, backward masks, batch statistics) are not state:
// they are recomputed by the next forward and never outlive a round.

// Snapshot writes the dense layer's weights under prefix.
func (d *Dense) Snapshot(sd *StateDict, prefix string) { snapshotParams(sd, prefix, d.Params()) }

// Restore reads the dense layer's weights from sd.
func (d *Dense) Restore(sd *StateDict, prefix string) error {
	return restoreParams(sd, prefix, d.Params())
}

// Snapshot writes gamma/beta and the running statistics under prefix. The
// running statistics are the state FedAvg-style weight transfer silently
// drops when it round-trips models through flat vectors — here they are
// first-class entries.
func (b *BatchNorm) Snapshot(sd *StateDict, prefix string) { snapshotParams(sd, prefix, b.Params()) }

// Restore reads gamma/beta and the running statistics from sd.
func (b *BatchNorm) Restore(sd *StateDict, prefix string) error {
	return restoreParams(sd, prefix, b.Params())
}

// Snapshot writes gamma/beta under prefix.
func (l *LayerNorm) Snapshot(sd *StateDict, prefix string) { snapshotParams(sd, prefix, l.Params()) }

// Restore reads gamma/beta from sd.
func (l *LayerNorm) Restore(sd *StateDict, prefix string) error {
	return restoreParams(sd, prefix, l.Params())
}

// Stateless layers: nothing to snapshot. Their Restore succeeds trivially so
// containers can recurse uniformly.

// Snapshot is a no-op: ReLU has no persistent state.
func (r *ReLU) Snapshot(sd *StateDict, prefix string) {}

// Restore is a no-op: ReLU has no persistent state.
func (r *ReLU) Restore(sd *StateDict, prefix string) error { return nil }

// Snapshot is a no-op: LeakyReLU has no persistent state.
func (l *LeakyReLU) Snapshot(sd *StateDict, prefix string) {}

// Restore is a no-op: LeakyReLU has no persistent state.
func (l *LeakyReLU) Restore(sd *StateDict, prefix string) error { return nil }

// Snapshot is a no-op: Tanh has no persistent state.
func (t *Tanh) Snapshot(sd *StateDict, prefix string) {}

// Restore is a no-op: Tanh has no persistent state.
func (t *Tanh) Restore(sd *StateDict, prefix string) error { return nil }

// Snapshot is a no-op. Dropout's only persistent state is its RNG stream,
// which math/rand/v2 cannot expose; resume-exact runs must derive dropout
// randomness from round-scoped streams (no model in the current zoo uses
// Dropout). See DESIGN.md §8.
func (d *Dropout) Snapshot(sd *StateDict, prefix string) {}

// Restore is a no-op; see Snapshot.
func (d *Dropout) Restore(sd *StateDict, prefix string) error { return nil }

// Snapshot recurses into each child layer as prefix.<index>.
func (s *Sequential) Snapshot(sd *StateDict, prefix string) {
	for i, l := range s.Layers {
		l.Snapshot(sd, fmt.Sprintf("%s.%d", prefix, i))
	}
}

// Restore recurses into each child layer as prefix.<index>.
func (s *Sequential) Restore(sd *StateDict, prefix string) error {
	for i, l := range s.Layers {
		if err := l.Restore(sd, fmt.Sprintf("%s.%d", prefix, i)); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot recurses into the inner layer as prefix.inner.
func (r *Residual) Snapshot(sd *StateDict, prefix string) {
	r.Inner.Snapshot(sd, prefix+".inner")
}

// Restore recurses into the inner layer as prefix.inner.
func (r *Residual) Restore(sd *StateDict, prefix string) error {
	return r.Inner.Restore(sd, prefix+".inner")
}

// Snapshot writes the full network state (body then head) under prefix.
func (n *Network) Snapshot(sd *StateDict, prefix string) {
	n.Body.Snapshot(sd, prefix+".body")
	n.Head.Snapshot(sd, prefix+".head")
}

// Restore reads the full network state from sd.
func (n *Network) Restore(sd *StateDict, prefix string) error {
	if err := n.Body.Restore(sd, prefix+".body"); err != nil {
		return err
	}
	return n.Head.Restore(sd, prefix+".head")
}

// CaptureState snapshots a network and its optimizer into one state dict
// under the canonical "net"/"opt" prefixes. opt may be nil for eval-only
// models.
func CaptureState(net *Network, opt Optimizer) *StateDict {
	sd := NewStateDict()
	net.Snapshot(sd, "net")
	if opt != nil {
		opt.Snapshot(sd, "opt", net.Params())
	}
	return sd
}

// ApplyState restores a network and its optimizer from a CaptureState dict.
// The network must be structurally identical to the one captured.
func ApplyState(net *Network, opt Optimizer, sd *StateDict) error {
	if err := net.Restore(sd, "net"); err != nil {
		return err
	}
	if opt != nil {
		return opt.Restore(sd, "opt", net.Params())
	}
	return nil
}

package nn

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/tensor"
)

// Checkpoint-section helpers shared by every algorithm's Snapshot/Restore
// hooks: one ckpt.Dict section per model (network + optimizer), encoded as a
// StateDict. Keeping the section layout here means FedPKD and all baselines
// speak the same on-disk dialect for their fleets.

// SnapshotModelSection captures net (and opt, if non-nil) into one section.
// It encodes straight from the live parameter and optimizer tensors into the
// dict's image: the bytes of CaptureState(net, opt).Encode(), without that
// dict's copy of every tensor.
func SnapshotModelSection(d *ckpt.Dict, section string, net *Network, opt Optimizer) {
	w := stateWriter{e: d.Section(section)}
	at := len(w.e.Buf())
	w.e.U32(0) // entry count, known once every entry is written
	w.name = append(w.buf[:0], "net.body"...)
	w.layer(net.Body)
	w.name = append(w.name[:0], "net.head"...)
	w.layer(net.Head)
	if opt != nil {
		w.name = append(w.name[:0], "opt"...)
		w.optimizer(opt, net.Params())
	}
	binary.LittleEndian.PutUint32(w.e.Buf()[at:], w.count)
}

// stateWriter streams state entries into e in StateDict.Encode's layout and
// CaptureState's order: the Snapshot methods' walk, with each entry's name
// grown and cut back in one buffer, so an entry costs no allocation.
type stateWriter struct {
	e     *ckpt.Enc
	name  []byte
	buf   [64]byte
	count uint32
}

// entry writes the header of an entry named by the current name.
func (w *stateWriter) entry(kind byte) {
	w.e.U32(uint32(len(w.name)))
	w.e.Bytes(w.name)
	w.e.U32(uint32(kind))
	w.count++
}

func (w *stateWriter) tensor(m *tensor.Matrix) {
	w.entry('t')
	w.e.U32(uint32(m.Rows))
	w.e.U32(uint32(m.Cols))
	w.e.F64s(m.Data)
}

func (w *stateWriter) int(v int64) {
	w.entry('i')
	w.e.I64(v)
}

// index appends sep and i to the current name.
func (w *stateWriter) index(sep string, i int) {
	w.name = strconv.AppendInt(append(w.name, sep...), int64(i), 10)
}

// layer writes what l's Snapshot writes under the current name. A layer type
// the walk does not know would be written wrong, so it panics instead.
func (w *stateWriter) layer(l Layer) {
	mark := len(w.name)
	switch v := l.(type) {
	case *Sequential:
		for i, c := range v.Layers {
			w.index(".", i)
			w.layer(c)
			w.name = w.name[:mark]
		}
	case *Residual:
		w.name = append(w.name, ".inner"...)
		w.layer(v.Inner)
	case *Dense:
		w.params(v.Params())
	case *BatchNorm:
		w.params(v.Params())
	case *LayerNorm:
		w.params(v.Params())
	case *ReLU:
	default:
		panic(fmt.Sprintf("nn: SnapshotModelSection does not know layer type %T", l))
	}
	w.name = w.name[:mark]
}

// params writes snapshotParams' entries: prefix.<index>.<name>.
func (w *stateWriter) params(ps []*Param) {
	mark := len(w.name)
	for i, p := range ps {
		w.index(".", i)
		w.name = append(append(w.name, '.'), p.Name...)
		w.tensor(p.Value)
		w.name = w.name[:mark]
	}
}

// optimizer writes what o's Snapshot writes under the current name for
// params, which is net.Params(). An optimizer type the walk does not know
// panics, like an unknown layer.
func (w *stateWriter) optimizer(o Optimizer, params []*Param) {
	mark := len(w.name)
	switch v := o.(type) {
	case *Adam:
		w.name = append(w.name, ".t"...)
		w.int(int64(v.t))
		for i, p := range params {
			if st, ok := v.state[p]; ok {
				w.name = w.name[:mark]
				w.index(".m", i)
				w.tensor(st.m)
				w.name = w.name[:mark]
				w.index(".v", i)
				w.tensor(st.v)
			}
		}
	default:
		panic(fmt.Sprintf("nn: SnapshotModelSection does not know optimizer type %T", o))
	}
	w.name = w.name[:mark]
}

// RestoreModelSection restores net (and opt, if non-nil) from the section
// written by SnapshotModelSection.
func RestoreModelSection(d *ckpt.Dict, section string, net *Network, opt Optimizer) error {
	b, err := d.MustGet(section)
	if err != nil {
		return err
	}
	sd, err := DecodeStateDict(b)
	if err != nil {
		return fmt.Errorf("nn: section %q: %w", section, err)
	}
	if err := ApplyState(net, opt, sd); err != nil {
		return fmt.Errorf("nn: section %q: %w", section, err)
	}
	return nil
}

// SnapshotFleetSections captures each client model into prefix.<c>. opts may
// be nil (no optimizer state) but otherwise must be parallel to nets.
func SnapshotFleetSections(d *ckpt.Dict, prefix string, nets []*Network, opts []Optimizer) {
	for c, net := range nets {
		var opt Optimizer
		if opts != nil {
			opt = opts[c]
		}
		SnapshotModelSection(d, fmt.Sprintf("%s.%d", prefix, c), net, opt)
	}
}

// RestoreFleetSections restores each client model from prefix.<c>.
func RestoreFleetSections(d *ckpt.Dict, prefix string, nets []*Network, opts []Optimizer) error {
	for c, net := range nets {
		var opt Optimizer
		if opts != nil {
			opt = opts[c]
		}
		if err := RestoreModelSection(d, fmt.Sprintf("%s.%d", prefix, c), net, opt); err != nil {
			return fmt.Errorf("nn: restore client %d: %w", c, err)
		}
	}
	return nil
}

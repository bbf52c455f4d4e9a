package engine

import (
	"fmt"
	"math"
	"sort"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/proto"
	"fedpkd/internal/tensor"
)

// secAsync is the engine-reserved checkpoint section holding the async
// mode's buffer state: the logical clock and, per client, the dispatch
// version, next-arrival time, retry attempt, and the retained global payload
// the client trains against. Written only by async runs, so synchronous
// checkpoints keep the exact pre-async container layout.
const secAsync = "engine.async"

// Payload flag bits in the checkpoint encoding.
const (
	pflagPresent = 1 << iota
	pflagLogits
	pflagLogitsLocal
	pflagProtos
)

// encodePayloadCkpt appends a payload's full value to e. The transport's
// wire forms cannot be reused here — the import direction runs transport →
// engine — and the checkpoint needs exact float64 values anyway, not wire
// quantization, so this is a plain bit-exact ckpt encoding.
func encodePayloadCkpt(e *ckpt.Enc, p *Payload) {
	if p == nil {
		e.U32(0)
		return
	}
	flags := uint32(pflagPresent)
	if p.Logits != nil {
		flags |= pflagLogits
	}
	if p.LogitsLocal {
		flags |= pflagLogitsLocal
	}
	if p.Protos != nil {
		flags |= pflagProtos
	}
	e.U32(flags)
	if p.Logits != nil {
		e.U32(uint32(p.Logits.Rows))
		e.U32(uint32(p.Logits.Cols))
		e.F64s(p.Logits.Data)
	}
	e.U32(uint32(len(p.Indices)))
	for _, ix := range p.Indices {
		e.I64(int64(ix))
	}
	if p.Protos != nil {
		e.U32(uint32(p.Protos.Classes))
		e.U32(uint32(p.Protos.Dim))
		classes := make([]int, 0, len(p.Protos.Vectors))
		for class := range p.Protos.Vectors {
			classes = append(classes, class)
		}
		sort.Ints(classes)
		e.U32(uint32(len(classes)))
		for _, class := range classes {
			e.I64(int64(class))
			e.I64(int64(p.Protos.Counts[class]))
			e.F64s(p.Protos.Vectors[class])
		}
	}
	e.F64s(p.Params)
	e.I64(int64(p.ParamsCounted))
	e.I64(int64(p.NumSamples))
}

// decodePayloadCkpt reads back what encodePayloadCkpt wrote.
func decodePayloadCkpt(d *ckpt.Dec) (*Payload, error) {
	flags, err := d.U32()
	if err != nil {
		return nil, fmt.Errorf("engine: decode payload flags: %w", err)
	}
	if flags&pflagPresent == 0 {
		return nil, nil
	}
	p := &Payload{LogitsLocal: flags&pflagLogitsLocal != 0}
	if flags&pflagLogits != 0 {
		rows, err := d.U32()
		if err != nil {
			return nil, fmt.Errorf("engine: decode payload logits rows: %w", err)
		}
		cols, err := d.U32()
		if err != nil {
			return nil, fmt.Errorf("engine: decode payload logits cols: %w", err)
		}
		data, err := d.F64s()
		if err != nil {
			return nil, fmt.Errorf("engine: decode payload logits data: %w", err)
		}
		if len(data) != int(rows)*int(cols) {
			return nil, fmt.Errorf("engine: payload logits shape %dx%d but %d values", rows, cols, len(data))
		}
		m := tensor.New(int(rows), int(cols))
		copy(m.Data, data)
		p.Logits = m
	}
	nix, err := d.U32()
	if err != nil {
		return nil, fmt.Errorf("engine: decode payload index count: %w", err)
	}
	for i := uint32(0); i < nix; i++ {
		ix, err := d.I64()
		if err != nil {
			return nil, fmt.Errorf("engine: decode payload index %d: %w", i, err)
		}
		p.Indices = append(p.Indices, int(ix))
	}
	if flags&pflagProtos != 0 {
		classes, err := d.U32()
		if err != nil {
			return nil, fmt.Errorf("engine: decode payload proto classes: %w", err)
		}
		dim, err := d.U32()
		if err != nil {
			return nil, fmt.Errorf("engine: decode payload proto dim: %w", err)
		}
		s := proto.NewSet(int(classes), int(dim))
		n, err := d.U32()
		if err != nil {
			return nil, fmt.Errorf("engine: decode payload proto entry count: %w", err)
		}
		for i := uint32(0); i < n; i++ {
			class, err := d.I64()
			if err != nil {
				return nil, fmt.Errorf("engine: decode payload proto class %d: %w", i, err)
			}
			count, err := d.I64()
			if err != nil {
				return nil, fmt.Errorf("engine: decode payload proto count %d: %w", i, err)
			}
			vec, err := d.F64s()
			if err != nil {
				return nil, fmt.Errorf("engine: decode payload proto vector %d: %w", i, err)
			}
			s.Vectors[int(class)] = vec
			s.Counts[int(class)] = int(count)
		}
		p.Protos = s
	}
	if p.Params, err = d.F64s(); err != nil {
		return nil, fmt.Errorf("engine: decode payload params: %w", err)
	}
	if len(p.Params) == 0 {
		p.Params = nil
	}
	pc, err := d.I64()
	if err != nil {
		return nil, fmt.Errorf("engine: decode payload params counted: %w", err)
	}
	p.ParamsCounted = int(pc)
	ns, err := d.I64()
	if err != nil {
		return nil, fmt.Errorf("engine: decode payload num samples: %w", err)
	}
	p.NumSamples = int(ns)
	return p, nil
}

// asyncSnapshot encodes the async buffer state, plus the options that shaped
// it — a resume under different options would replay a different schedule,
// so the restore validates them.
func (st *asyncState) asyncSnapshot() []byte {
	e := ckpt.NewEnc()
	o := st.opts
	e.I64(int64(o.BufferSize))
	e.F64(o.StalenessAlpha)
	e.U64(o.Schedule.Seed)
	e.U64(o.Schedule.MinTicks)
	e.U64(o.Schedule.MaxTicks)
	e.F64(o.Schedule.StragglerFrac)
	e.U64(o.Schedule.StragglerFactor)
	started := uint32(0)
	if st.started {
		started = 1
	}
	e.U32(started)
	e.U64(st.clock)
	n := len(st.dispatchVersion)
	e.U32(uint32(n))
	for c := 0; c < n; c++ {
		e.I64(int64(st.dispatchVersion[c]))
		e.U64(st.ready[c])
		e.I64(int64(st.attempts[c]))
		encodePayloadCkpt(e, st.dispatched[c])
	}
	return e.Buf()
}

// asyncRestore decodes an asyncSnapshot into a fresh state with the same
// options, failing (not partially applying) on any mismatch.
func (st *asyncState) asyncRestore(b []byte) error {
	d := ckpt.NewDec(b)
	k, err := d.I64()
	if err != nil {
		return fmt.Errorf("engine: decode async buffer size: %w", err)
	}
	alpha, err := d.F64()
	if err != nil {
		return fmt.Errorf("engine: decode async staleness alpha: %w", err)
	}
	var sched ArrivalSchedule
	if sched.Seed, err = d.U64(); err != nil {
		return fmt.Errorf("engine: decode async schedule seed: %w", err)
	}
	if sched.MinTicks, err = d.U64(); err != nil {
		return fmt.Errorf("engine: decode async schedule min ticks: %w", err)
	}
	if sched.MaxTicks, err = d.U64(); err != nil {
		return fmt.Errorf("engine: decode async schedule max ticks: %w", err)
	}
	if sched.StragglerFrac, err = d.F64(); err != nil {
		return fmt.Errorf("engine: decode async schedule straggler frac: %w", err)
	}
	if sched.StragglerFactor, err = d.U64(); err != nil {
		return fmt.Errorf("engine: decode async schedule straggler factor: %w", err)
	}
	o := st.opts
	if int(k) != o.BufferSize || math.Float64bits(alpha) != math.Float64bits(o.StalenessAlpha) || sched != o.Schedule {
		return fmt.Errorf("engine: checkpoint async options (K=%d α=%v %+v) differ from the runner's (K=%d α=%v %+v) — resumed arrivals would diverge",
			k, alpha, sched, o.BufferSize, o.StalenessAlpha, o.Schedule)
	}
	started, err := d.U32()
	if err != nil {
		return fmt.Errorf("engine: decode async started flag: %w", err)
	}
	clock, err := d.U64()
	if err != nil {
		return fmt.Errorf("engine: decode async clock: %w", err)
	}
	n, err := d.U32()
	if err != nil {
		return fmt.Errorf("engine: decode async client count: %w", err)
	}
	if int(n) != len(st.dispatchVersion) {
		return fmt.Errorf("engine: checkpoint async state has %d clients, runner has %d", n, len(st.dispatchVersion))
	}
	versions := make([]int, n)
	ready := make([]uint64, n)
	attempts := make([]int, n)
	dispatched := make([]*Payload, n)
	for c := uint32(0); c < n; c++ {
		v, err := d.I64()
		if err != nil {
			return fmt.Errorf("engine: decode async client %d version: %w", c, err)
		}
		versions[c] = int(v)
		if ready[c], err = d.U64(); err != nil {
			return fmt.Errorf("engine: decode async client %d ready: %w", c, err)
		}
		a, err := d.I64()
		if err != nil {
			return fmt.Errorf("engine: decode async client %d attempts: %w", c, err)
		}
		attempts[c] = int(a)
		if dispatched[c], err = decodePayloadCkpt(d); err != nil {
			return fmt.Errorf("engine: decode async client %d dispatch: %w", c, err)
		}
	}
	st.started = started != 0
	st.clock = clock
	st.dispatchVersion = versions
	st.ready = ready
	st.attempts = attempts
	st.dispatched = dispatched
	return nil
}

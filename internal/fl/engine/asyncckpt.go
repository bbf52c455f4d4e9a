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

// decodePayloadCkpt reads back what encodePayloadCkpt wrote. Errors are
// recorded in d, which the caller checks.
func decodePayloadCkpt(d *ckpt.Dec) *Payload {
	flags := d.U32()
	if flags&pflagPresent == 0 {
		return nil
	}
	p := &Payload{LogitsLocal: flags&pflagLogitsLocal != 0}
	if flags&pflagLogits != 0 {
		rows, cols, data := d.U32(), d.U32(), d.F64s()
		if uint64(len(data)) != uint64(rows)*uint64(cols) {
			d.Fail(fmt.Errorf("payload logits shape %dx%d but %d values", rows, cols, len(data)))
			return nil // before the bad shape sizes a matrix
		}
		p.Logits = tensor.New(int(rows), int(cols))
		copy(p.Logits.Data, data)
	}
	for n := d.Count(8); n > 0; n-- {
		p.Indices = append(p.Indices, int(d.I64()))
	}
	if flags&pflagProtos != 0 {
		p.Protos = proto.NewSet(int(d.U32()), int(d.U32()))
		// An entry is its class and count (8 bytes each) and a length prefix (8).
		for n := d.Count(3 * 8); n > 0; n-- {
			class, count := int(d.I64()), int(d.I64())
			p.Protos.Vectors[class] = d.F64s()
			p.Protos.Counts[class] = count
		}
	}
	if p.Params = d.F64s(); len(p.Params) == 0 {
		p.Params = nil
	}
	p.ParamsCounted, p.NumSamples = int(d.I64()), int(d.I64())
	return p
}

// asyncSnapshot appends the async buffer state to e, plus the options that
// shaped it — a resume under different options would replay a different
// schedule, so the restore validates them.
func (st *asyncState) asyncSnapshot(e *ckpt.Enc) {
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
}

// asyncRestore decodes an asyncSnapshot into st, a fresh state sized for the
// runner's fleet and holding its options; the caller discards st on error.
// Options and fleet size are compared only once the fields before them have
// decoded, so a truncated section reports the truncation, not a mismatch.
func (st *asyncState) asyncRestore(b []byte) error {
	d := ckpt.NewDec(b)
	k, alpha := int(d.I64()), d.F64()
	sched := ArrivalSchedule{
		Seed: d.U64(), MinTicks: d.U64(), MaxTicks: d.U64(), StragglerFrac: d.F64(), StragglerFactor: d.U64(),
	}
	started, clock := d.U32() != 0, d.U64()
	// A client is its version, ready time and attempts (8 bytes each) and a
	// payload flags word (4).
	n := d.Count(3*8 + 4)
	if err := d.Err(); err != nil {
		return fmt.Errorf("engine: decode %s: %w", secAsync, err)
	}
	o := st.opts
	if k != o.BufferSize || math.Float64bits(alpha) != math.Float64bits(o.StalenessAlpha) || sched != o.Schedule {
		return fmt.Errorf("engine: checkpoint async options (K=%d α=%v %+v) differ from the runner's (K=%d α=%v %+v) — resumed arrivals would diverge",
			k, alpha, sched, o.BufferSize, o.StalenessAlpha, o.Schedule)
	}
	if n != len(st.dispatchVersion) {
		return fmt.Errorf("engine: checkpoint async state has %d clients, runner has %d", n, len(st.dispatchVersion))
	}
	for c := range st.dispatchVersion {
		st.dispatchVersion[c], st.ready[c], st.attempts[c], st.dispatched[c] =
			int(d.I64()), d.U64(), int(d.I64()), decodePayloadCkpt(d)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("engine: decode %s: %w", secAsync, err)
	}
	st.started, st.clock = started, clock
	return nil
}

package transport

import (
	"fmt"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/proto"
	"fedpkd/internal/tensor"
)

// WirePayload is the serialized form of an engine.Payload — the one
// knowledge container every algorithm exchanges, so one wire struct serves
// all of them. Under the default float64raw codec, values travel as raw
// float64 slices: a distributed run then produces bit-identical histories
// to the in-process engine (the analytic byte accounting in internal/comm
// still prices scalars at 4 bytes, modelling a float32 deployment; see
// engine.Payload.WireBytes). Under a compressing codec the value slices
// stay empty and the *Enc sections carry the packed bytes instead.
//
// A WirePayload built by PayloadToWire/PayloadToWireIn aliases the engine
// payload's float slices, and ToPayloadRef hands the wire payload's slices to
// the engine payload it returns: the wire struct is a view that lives for one
// synchronous Encode or from one Decode, not a second copy of the values.
type WirePayload struct {
	// Logits block (row-major Rows x Cols), present when HasLogits.
	HasLogits   bool
	Rows, Cols  int
	Logits      []float64
	LogitsLocal bool
	// Indices are public-set sample indices the logits refer to.
	Indices []int32
	// Prototype block, present when HasProtos: one entry per class held.
	HasProtos       bool
	ProtoNumClasses int
	ProtoClasses    []int32
	ProtoCounts     []int32
	ProtoDim        int
	ProtoValues     []float64 // len(ProtoClasses) * ProtoDim, row-major
	// Flattened model parameters / accounting-only parameter width.
	Params        []float64
	ParamsCounted int
	// NumSamples is the sender's aggregation weight.
	NumSamples int

	// Codec is the comm.Codec the packed sections below are encoded under;
	// 0 is float64raw (raw slices above, no packed sections). Each non-empty
	// section is one comm.EncodeSection block (tag + CRC + packed body).
	// Logits marked LogitsLocal always travel raw: they are free on the wire
	// and the receiver recomputes them, so quantizing them would only hurt.
	// ParamsN is the decoded length of ParamsEnc (packed sections do not
	// carry their own shape; raw Params carries its length implicitly).
	Codec     uint8
	LogitsEnc []byte
	ProtosEnc []byte
	ParamsEnc []byte
	ParamsN   int
}

// RoundStart opens a round, server → client: it carries the front-loaded
// global state (engine.Hooks.GlobalState) when the algorithm has one, and
// announces the round's wire codec — the negotiation: clients encode their
// uploads under the codec the server declared here.
type RoundStart struct {
	Round     int
	HasGlobal bool
	Global    WirePayload
	Codec     uint8
}

// RoundUpload is a client's upload (engine.Hooks.LocalUpdate result),
// client → server. A client whose local update failed reports Err instead
// of a payload, so the server never blocks waiting for a crashed phase.
type RoundUpload struct {
	Round      int
	Client     int
	Err        string
	HasPayload bool
	Payload    WirePayload
}

// RoundEnd closes a round, server → client: it carries the aggregation
// broadcast (engine.Hooks.Aggregate result) when there is one, or the
// server-side error that aborted the round. Codec echoes the round's
// negotiated codec (the broadcast is encoded under it).
type RoundEnd struct {
	Round        int
	Err          string
	HasBroadcast bool
	Broadcast    WirePayload
	Codec        uint8
}

// maxWireDim bounds any single dimension decoded off the wire. Decode accepts
// any int a varint can hold, so dimension fields must be range-checked before
// they are multiplied (overflow) or used to size allocations.
const maxWireDim = 1 << 30

// checkLogits validates a Samples x Classes logits block.
func checkLogits(samples, classes, n int) error {
	if samples < 0 || samples > maxWireDim {
		return fmt.Errorf("transport: samples %d out of range", samples)
	}
	if classes < 0 || classes > maxWireDim {
		return fmt.Errorf("transport: classes %d out of range", classes)
	}
	if int64(samples)*int64(classes) != int64(n) {
		return fmt.Errorf("transport: %d logit values for %dx%d", n, samples, classes)
	}
	return nil
}

// checkProtos validates a wire-format prototype block.
func checkProtos(classes, counts []int32, dim, nvals int) error {
	if len(classes) != len(counts) {
		return fmt.Errorf("transport: %d proto classes but %d counts", len(classes), len(counts))
	}
	if dim < 0 || dim > maxWireDim {
		return fmt.Errorf("transport: proto dim %d out of range", dim)
	}
	if int64(len(classes))*int64(dim) != int64(nvals) {
		return fmt.Errorf("transport: %d proto values for %d classes of dim %d", nvals, len(classes), dim)
	}
	for i, c := range classes {
		if c < 0 {
			return fmt.Errorf("transport: negative proto class %d", c)
		}
		if counts[i] < 0 {
			return fmt.Errorf("transport: negative proto count %d for class %d", counts[i], c)
		}
	}
	return nil
}

// Validate rejects structurally inconsistent payloads. Decode only checks
// framing and the message checksum; every field a peer controls must pass
// here before it sizes an allocation or indexes a slice. For packed sections
// this includes the comm.CheckSection validation — tag legality against the
// declared codec, exact length against the declared shape, and the body CRC —
// so a bit-flipped quantized section is rejected here with a named comm
// error, never silently dequantized into wrong values.
func (w *WirePayload) Validate() error {
	c := comm.Codec(w.Codec)
	if !c.Valid() {
		return fmt.Errorf("transport: unknown payload codec %d", w.Codec)
	}
	if c == comm.CodecFloat64 && (len(w.LogitsEnc) > 0 || len(w.ProtosEnc) > 0 || len(w.ParamsEnc) > 0) {
		return fmt.Errorf("transport: packed sections under the float64raw codec")
	}
	codedLogits := c != comm.CodecFloat64 && w.HasLogits && !w.LogitsLocal
	if codedLogits {
		if len(w.Logits) > 0 {
			return fmt.Errorf("transport: raw logit values under codec %s", c)
		}
		if w.Rows < 0 || w.Rows > maxWireDim || w.Cols < 0 || w.Cols > maxWireDim {
			return fmt.Errorf("transport: logits %dx%d out of range", w.Rows, w.Cols)
		}
		s, err := comm.CheckSection(w.LogitsEnc, w.Rows, w.Cols)
		if err != nil {
			return fmt.Errorf("transport: logits section: %w", err)
		}
		if s != c.LogitsSection() {
			return fmt.Errorf("transport: logits section %d under codec %s: %w", s, c, comm.ErrSectionTag)
		}
	} else if len(w.LogitsEnc) > 0 {
		return fmt.Errorf("transport: unexpected packed logits section")
	}
	if w.HasLogits && !codedLogits {
		if err := checkLogits(w.Rows, w.Cols, len(w.Logits)); err != nil {
			return err
		}
	} else if !w.HasLogits && len(w.Logits) > 0 {
		return fmt.Errorf("transport: %d logit values without a logits block", len(w.Logits))
	}
	for _, v := range w.Indices {
		if v < 0 {
			return fmt.Errorf("transport: negative sample index %d", v)
		}
	}
	codedProtos := c != comm.CodecFloat64 && w.HasProtos
	if w.HasProtos {
		if w.ProtoNumClasses < 0 || w.ProtoNumClasses > maxWireDim {
			return fmt.Errorf("transport: proto class count %d out of range", w.ProtoNumClasses)
		}
		nvals := len(w.ProtoValues)
		if codedProtos {
			if nvals > 0 {
				return fmt.Errorf("transport: raw proto values under codec %s", c)
			}
			if w.ProtoDim < 0 || w.ProtoDim > maxWireDim {
				return fmt.Errorf("transport: proto dim %d out of range", w.ProtoDim)
			}
			s, err := comm.CheckSection(w.ProtosEnc, len(w.ProtoClasses), w.ProtoDim)
			if err != nil {
				return fmt.Errorf("transport: proto section: %w", err)
			}
			if s != c.ProtoSection() {
				return fmt.Errorf("transport: proto section %d under codec %s: %w", s, c, comm.ErrSectionTag)
			}
			nvals = len(w.ProtoClasses) * w.ProtoDim
		}
		if err := checkProtos(w.ProtoClasses, w.ProtoCounts, w.ProtoDim, nvals); err != nil {
			return err
		}
		for _, class := range w.ProtoClasses {
			if int(class) >= w.ProtoNumClasses {
				return fmt.Errorf("transport: proto class %d out of range (%d classes)", class, w.ProtoNumClasses)
			}
		}
	} else if len(w.ProtoValues) > 0 {
		return fmt.Errorf("transport: %d proto values without a proto block", len(w.ProtoValues))
	} else if len(w.ProtosEnc) > 0 {
		return fmt.Errorf("transport: packed proto section without a proto block")
	}
	if w.ParamsN < 0 || w.ParamsN > maxWireDim {
		return fmt.Errorf("transport: packed params length %d out of range", w.ParamsN)
	}
	if len(w.ParamsEnc) > 0 {
		if len(w.Params) > 0 {
			return fmt.Errorf("transport: raw and packed params together")
		}
		s, err := comm.CheckSection(w.ParamsEnc, 1, w.ParamsN)
		if err != nil {
			return fmt.Errorf("transport: params section: %w", err)
		}
		// Either float32 encoding is legal: delta when the sender had the
		// round's reference, plain otherwise. The decoder enforces that a
		// delta section actually gets its reference.
		if s != comm.SectionF32 && s != comm.SectionDeltaF32 {
			return fmt.Errorf("transport: params section %d under codec %s: %w", s, c, comm.ErrSectionTag)
		}
	} else if c != comm.CodecFloat64 && len(w.Params) > 0 {
		return fmt.Errorf("transport: raw param values under codec %s", c)
	}
	if w.ParamsCounted < 0 {
		return fmt.Errorf("transport: negative counted params %d", w.ParamsCounted)
	}
	if w.NumSamples < 0 {
		return fmt.Errorf("transport: negative sample count %d", w.NumSamples)
	}
	return nil
}

// Validate rejects structurally inconsistent round starts.
func (rs *RoundStart) Validate() error {
	if rs.Round < 0 {
		return fmt.Errorf("transport: negative round %d", rs.Round)
	}
	if !comm.Codec(rs.Codec).Valid() {
		return fmt.Errorf("transport: unknown round codec %d", rs.Codec)
	}
	if rs.HasGlobal {
		if rs.Global.Codec != rs.Codec {
			return fmt.Errorf("transport: global payload codec %d under round codec %d", rs.Global.Codec, rs.Codec)
		}
		return rs.Global.Validate()
	}
	return nil
}

// Validate rejects structurally inconsistent uploads.
func (ru *RoundUpload) Validate() error {
	if ru.Round < 0 {
		return fmt.Errorf("transport: negative round %d", ru.Round)
	}
	if ru.Client < 0 {
		return fmt.Errorf("transport: negative client id %d", ru.Client)
	}
	if ru.HasPayload {
		return ru.Payload.Validate()
	}
	return nil
}

// Validate rejects structurally inconsistent round ends.
func (re *RoundEnd) Validate() error {
	if re.Round < 0 {
		return fmt.Errorf("transport: negative round %d", re.Round)
	}
	if !comm.Codec(re.Codec).Valid() {
		return fmt.Errorf("transport: unknown round codec %d", re.Codec)
	}
	if re.HasBroadcast {
		if re.Broadcast.Codec != re.Codec {
			return fmt.Errorf("transport: broadcast payload codec %d under round codec %d", re.Broadcast.Codec, re.Codec)
		}
		return re.Broadcast.Validate()
	}
	return nil
}

// PayloadToWireIn serializes an engine payload under wire codec c: logits
// and prototypes as the codec's packed sections, params as a float32 delta
// against ref when ref matches their length (plain float32 otherwise).
// CodecFloat64 yields the raw float64 format of PayloadToWire. Encoding can
// only fail on non-finite values, which training arithmetic never produces.
func PayloadToWireIn(p *engine.Payload, c comm.Codec, ref []float64) (WirePayload, error) {
	if c == comm.CodecFloat64 || p == nil {
		return PayloadToWire(p), nil
	}
	var w WirePayload
	w.Codec = uint8(c)
	w.LogitsLocal = p.LogitsLocal
	if p.Logits != nil {
		w.HasLogits = true
		w.Rows, w.Cols = p.Logits.Rows, p.Logits.Cols
		if p.LogitsLocal {
			// Free on the wire and receiver-recomputable: never quantized.
			w.Logits = p.Logits.Data
		} else {
			enc, err := comm.EncodeSection(c.LogitsSection(), p.Logits.Data, w.Rows, w.Cols, nil)
			if err != nil {
				return WirePayload{}, fmt.Errorf("transport: encode logits: %w", err)
			}
			w.LogitsEnc = enc
		}
	}
	for _, i := range p.Indices {
		w.Indices = append(w.Indices, int32(i))
	}
	if p.Protos != nil {
		w.HasProtos = true
		w.ProtoNumClasses = p.Protos.Classes
		w.ProtoDim = p.Protos.Dim
		var vals []float64
		for class := 0; class < p.Protos.Classes; class++ {
			vec, ok := p.Protos.Vectors[class]
			if !ok {
				continue
			}
			w.ProtoClasses = append(w.ProtoClasses, int32(class))
			w.ProtoCounts = append(w.ProtoCounts, int32(p.Protos.Counts[class]))
			vals = append(vals, vec...)
		}
		enc, err := comm.EncodeSection(c.ProtoSection(), vals, len(w.ProtoClasses), w.ProtoDim, nil)
		if err != nil {
			return WirePayload{}, fmt.Errorf("transport: encode protos: %w", err)
		}
		w.ProtosEnc = enc
	}
	if len(p.Params) > 0 {
		hasRef := len(ref) == len(p.Params)
		s := c.ParamsSection(hasRef)
		enc, err := comm.EncodeSection(s, p.Params, 1, len(p.Params), ref)
		if err != nil {
			return WirePayload{}, fmt.Errorf("transport: encode params: %w", err)
		}
		w.ParamsEnc = enc
		w.ParamsN = len(p.Params)
	}
	w.ParamsCounted = p.ParamsCounted
	w.NumSamples = p.NumSamples
	return w, nil
}

// PayloadToWire serializes an engine payload (nil yields the zero wire
// payload — pair it with a Has* flag on the enclosing message). Logits and
// Params alias p's slices rather than copying them: encode the result before
// p changes.
func PayloadToWire(p *engine.Payload) WirePayload {
	var w WirePayload
	if p == nil {
		return w
	}
	if p.Logits != nil {
		w.HasLogits = true
		w.Rows, w.Cols = p.Logits.Rows, p.Logits.Cols
		w.Logits = p.Logits.Data
	}
	w.LogitsLocal = p.LogitsLocal
	for _, i := range p.Indices {
		w.Indices = append(w.Indices, int32(i))
	}
	if p.Protos != nil {
		w.HasProtos = true
		w.ProtoNumClasses = p.Protos.Classes
		w.ProtoDim = p.Protos.Dim
		for class := 0; class < p.Protos.Classes; class++ {
			vec, ok := p.Protos.Vectors[class]
			if !ok {
				continue
			}
			w.ProtoClasses = append(w.ProtoClasses, int32(class))
			w.ProtoCounts = append(w.ProtoCounts, int32(p.Protos.Counts[class]))
			w.ProtoValues = append(w.ProtoValues, vec...)
		}
	}
	if len(p.Params) > 0 {
		w.Params = p.Params
	}
	w.ParamsCounted = p.ParamsCounted
	w.NumSamples = p.NumSamples
	return w
}

// RawSize returns EncodedSize(msg) with msg's knowledge payload — the Global
// of a *RoundStart, the Payload of a *RoundUpload or the Broadcast of a
// *RoundEnd — replaced by PayloadToWire(p), the float64raw form. It is
// computed from p's own slices: no raw form is built, so no prototype or
// index is copied.
func RawSize(msg any, p *engine.Payload) (int, error) {
	var w *WirePayload
	switch m := msg.(type) {
	case *RoundStart:
		if m != nil {
			w = &m.Global
		}
	case *RoundUpload:
		if m != nil {
			w = &m.Payload
		}
	case *RoundEnd:
		if m != nil {
			w = &m.Broadcast
		}
	}
	if w == nil {
		return 0, unknownMessage("raw size of", msg)
	}
	n, err := EncodedSize(msg)
	if err != nil {
		return 0, err
	}
	return n - w.size() + rawPayloadSize(p), nil
}

// rawPayloadSize is PayloadToWire(p).size(), field for field in
// WirePayload.size's order, read off p.
func rawPayloadSize(p *engine.Payload) int {
	if p == nil {
		return (&WirePayload{}).size()
	}
	n := 2 // flags, codec
	if p.Logits != nil {
		n += intLen(p.Logits.Rows) + intLen(p.Logits.Cols) + floatsLen(p.Logits.Data)
	} else {
		n += 2*intLen(0) + floatsLen(nil)
	}
	n += uvarintLen(uint64(len(p.Indices)))
	for _, i := range p.Indices {
		n += intLen(int(int32(i)))
	}
	if p.Protos != nil {
		// One scan of the held classes prices their ids, their counts and
		// their values' width.
		held, ids, values := 0, 0, 0
		var acc uint64
		for class := 0; class < p.Protos.Classes; class++ {
			vec, ok := p.Protos.Vectors[class]
			if !ok {
				continue
			}
			held++
			ids += intLen(int(int32(class))) + intLen(int(int32(p.Protos.Counts[class])))
			values += len(vec)
			acc = orWords(acc, vec)
		}
		n += intLen(p.Protos.Classes) + 2*uvarintLen(uint64(held)) + ids + intLen(p.Protos.Dim) + floatsSize(values, acc)
	} else {
		n += intLen(0) + 2*int32sLen(nil) + intLen(0) + floatsLen(nil)
	}
	n += floatsLen(p.Params) + intLen(p.ParamsCounted) + intLen(p.NumSamples)
	return n + 3*bytesLen(0) + intLen(0) // no packed sections, ParamsN 0
}

// ToPayload validates the wire payload and reconstructs the engine payload.
// It decodes without a delta reference, so payloads whose params section is
// delta-encoded (uploads under a compressing codec) need ToPayloadRef.
func (w *WirePayload) ToPayload() (*engine.Payload, error) {
	return w.ToPayloadRef(nil)
}

// ToPayloadRef validates the wire payload and reconstructs the engine
// payload, decoding a delta-encoded params section against ref (the round's
// global params as both ends decoded them). A delta section without a
// matching reference fails with comm.ErrSectionRef — an error, never a
// panic or a silently wrong vector. The returned payload takes over w's raw
// float slices instead of copying them: w is spent once it has been
// converted. A packed params section decodes into a vector from the
// transport's vector list, as Decode does a raw one, so the returned Params
// of a decoded w is a list vector either way, for its holder to return with
// ReleaseVector. On error a packed section's vector is back on the list and
// w's raw Params is still w's.
func (w *WirePayload) ToPayloadRef(ref []float64) (*engine.Payload, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := &engine.Payload{
		LogitsLocal:   w.LogitsLocal,
		ParamsCounted: w.ParamsCounted,
		NumSamples:    w.NumSamples,
	}
	if w.HasLogits {
		vals := w.Logits
		if len(w.LogitsEnc) > 0 {
			var err error
			vals, _, err = comm.DecodeSection(w.LogitsEnc, w.Rows, w.Cols, nil)
			if err != nil {
				return nil, fmt.Errorf("transport: decode logits: %w", err)
			}
		}
		p.Logits = tensor.FromSlice(w.Rows, w.Cols, vals)
	}
	for _, i := range w.Indices {
		p.Indices = append(p.Indices, int(i))
	}
	if w.HasProtos {
		s := proto.NewSet(w.ProtoNumClasses, w.ProtoDim)
		vals := w.ProtoValues
		if len(w.ProtosEnc) > 0 {
			var err error
			vals, _, err = comm.DecodeSection(w.ProtosEnc, len(w.ProtoClasses), w.ProtoDim, nil)
			if err != nil {
				return nil, fmt.Errorf("transport: decode protos: %w", err)
			}
		}
		for i, class := range w.ProtoClasses {
			// Capacity-clipped, so an append to one class's vector cannot
			// run into its neighbour's values.
			s.Vectors[int(class)] = vals[i*w.ProtoDim : (i+1)*w.ProtoDim : (i+1)*w.ProtoDim]
			s.Counts[int(class)] = int(w.ProtoCounts[i])
		}
		p.Protos = s
	}
	if len(w.ParamsEnc) > 0 {
		vals := vectorList.get(w.ParamsN)
		if _, err := comm.DecodeSectionInto(vals, w.ParamsEnc, 1, w.ParamsN, ref); err != nil {
			vectorList.put(vals)
			return nil, fmt.Errorf("transport: decode params: %w", err)
		}
		p.Params = vals
	} else if len(w.Params) > 0 {
		p.Params = w.Params
	}
	return p, nil
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/distrib"
	"fedpkd/internal/expt"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
	"fedpkd/internal/transport"
)

// prober times calls into a layer's public functions. Each probe repeats
// its call for about budget and reports the median of the single calls; a
// zero budget makes exactly one call (the unit test's N=1).
type prober struct {
	budget time.Duration
	tr     *tracer
	trace  string
}

// run returns the median seconds of one fn call and records the whole probe
// as one span carrying the call count.
func (p *prober) run(layer, name string, bytes int64, fn func()) float64 {
	if p.budget > 0 {
		fn() // first call pays for lazy buffers, like the program's warm-up rounds
	}
	start := time.Now()
	var samples []float64
	for {
		t0 := time.Now()
		fn()
		samples = append(samples, time.Since(t0).Seconds())
		if time.Since(start) >= p.budget {
			break
		}
	}
	p.tr.add(0, p.trace, layer, name, start, time.Now(), int64(len(samples)), bytes)
	return median(samples)
}

// twin is a same-seed copy of the workload's algorithm whose rounds the
// benchmark drives by hand, one hook call at a time, to see the hooks apart
// and to capture the payloads the wire-side probes replay.
type twin struct {
	env    *fl.Env
	in     inputs
	runner *engine.Runner
	codec  comm.Codec

	global *engine.Payload // round's front-loaded state, as clients decode it
	raw    []engine.Upload // uploads as the clients' hooks returned them
	bcast  *engine.Payload

	localMS     []float64 // per client, last driven round
	digestMS    []float64
	aggregateMS float64
}

// driveTwin builds the reference-seed twin and plays rounds of it serially
// through the engine's public hook surface, a span around every call.
func driveTwin(w *workload, rounds int, tr *tracer) (*twin, error) {
	in := w.generate(referenceSeed)
	env, err := fl.NewEnv(in.Env)
	if err != nil {
		return nil, err
	}
	// The twin runs synchronous rounds with no checkpoint policy: the hooks
	// are the same ones an async flush calls, and the checkpoint is probed
	// on its own below.
	plain := *w
	plain.Async, plain.Ckpt = false, false
	runner, err := plain.buildOn(env, in, "")
	if err != nil {
		return nil, err
	}
	tw := &twin{env: env, in: in, runner: runner, codec: runner.Codec()}
	hooks := runner.Hooks()
	for i := 0; i < rounds; i++ {
		trace := fmt.Sprintf("%s/twin/%d", w.Name, i)
		roundStart := time.Now()
		root := tr.add(0, trace, "engine", "round", roundStart, roundStart, 1, 0)
		timed := func(layer, name string, count int64, fn func() error) (float64, error) {
			t0 := time.Now()
			err := fn()
			t1 := time.Now()
			tr.add(root, trace, layer, name, t0, t1, count, 0)
			return float64(t1.Sub(t0)) / 1e6, err
		}
		hookLayer := w.hookLayer()

		var t int
		_, _ = timed("engine", "BeginRound", 1, func() error { t = runner.BeginRound(); return nil })
		rc := runner.Context(t)
		participants := runner.Participants(t)
		_, _ = timed(hookLayer, "GlobalState", 1, func() error {
			tw.global = hooks.GlobalState(t).ApplyCodec(tw.codec, nil)
			return nil
		})
		var ref []float64
		if tw.global != nil {
			ref = tw.global.Params
		}

		tw.raw, tw.localMS, tw.digestMS = nil, nil, nil
		uploads := make([]engine.Upload, 0, len(participants))
		for _, c := range participants {
			var up *engine.Payload
			ms, err := timed(hookLayer, "LocalUpdate", 1, func() (err error) {
				up, err = hooks.LocalUpdate(rc, c, tw.global)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("twin LocalUpdate client %d: %w", c, err)
			}
			tw.localMS = append(tw.localMS, ms)
			if up == nil {
				continue
			}
			tw.raw = append(tw.raw, engine.Upload{Client: c, Payload: up})
			uploads = append(uploads, engine.Upload{Client: c, Payload: up.ApplyCodec(tw.codec, ref)})
		}
		ms, err := timed(hookLayer, "Aggregate", int64(len(uploads)), func() (err error) {
			tw.bcast, err = hooks.Aggregate(rc, uploads)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("twin Aggregate: %w", err)
		}
		tw.aggregateMS = ms
		if tw.bcast != nil {
			tw.bcast = tw.bcast.ApplyCodec(tw.codec, nil)
			for _, c := range participants {
				ms, err := timed(hookLayer, "Digest", 1, func() error { return hooks.Digest(rc, c, tw.bcast) })
				if err != nil {
					return nil, fmt.Errorf("twin Digest client %d: %w", c, err)
				}
				tw.digestMS = append(tw.digestMS, ms)
			}
		}
		if _, err := timed("engine", "CompleteRound", 1, runner.CompleteRound); err != nil {
			return nil, err
		}
		tr.finish(root, time.Now())
	}
	return tw, nil
}

// probeLayers replays the twin's captured payloads, and a few synthetic
// inputs, through each layer's public functions. A layer the workload never
// enters is not probed and reports zero.
func probeLayers(w *workload, tw *twin, p *prober, m metricValues) error {
	// core's aggregate is read off the recorder's phases; its digest has no
	// counterpart in FedAvg, whose Aggregate broadcasts nothing.
	if w.Algo == expt.AlgoFedPKD {
		m["core.digest_ms_p50"] = median(tw.digestMS)
	} else {
		m["baselines.aggregate_ms"] = tw.aggregateMS
	}
	m[w.hookLayer()+".local_update_ms_p50"] = median(tw.localMS)

	probeTensor(p, m)
	probeNN(w, tw, p, m)
	probeReduce(p, m)
	if tw.codec != comm.CodecFloat64 {
		probeCodec(tw, p, m)
	}
	if w.Mode != "" {
		if err := probeTransport(w, tw, p, m); err != nil {
			return err
		}
	}
	if w.Ckpt {
		if err := probeCheckpoint(w, tw, p, m); err != nil {
			return err
		}
	}
	return nil
}

// probeTensor times the three GEMM orientations at the widest Dense shape of
// the client models (batch 32 through the shared feature width) and the
// forward orientation at 128³ and 256³, where the kernels fan out.
func probeTensor(p *prober, m metricValues) {
	rng := stats.NewRNG(7)
	gflops := func(name string, rows, inner, cols int, fn func()) {
		sec := p.run("tensor", name, 0, fn)
		m["tensor."+name] = 2 * float64(rows) * float64(inner) * float64(cols) / sec / 1e9
	}
	const batch, width = 32, models.FeatureWidth
	x := tensor.Randn(rng, batch, width, 1)
	wgt := tensor.Randn(rng, width, width, 1)
	dy := tensor.Randn(rng, batch, width, 1)
	out := tensor.New(batch, width)
	dw := tensor.New(width, width)
	gflops("gemm_nn_gflops", batch, width, width, func() { tensor.MatMulInto(out, x, wgt) })
	gflops("gemm_tn_gflops", width, batch, width, func() { tensor.MatMulTNInto(dw, x, dy) })
	gflops("gemm_nt_gflops", batch, width, width, func() { tensor.MatMulNTInto(out, dy, wgt) })
	for _, n := range []int{128, 256} {
		a, b, c := tensor.Randn(rng, n, n, 1), tensor.Randn(rng, n, n, 1), tensor.New(n, n)
		gflops(fmt.Sprintf("gemm_nn_%d_gflops", n), n, n, n, func() { tensor.MatMulInto(c, a, b) })
	}
}

// probeNN times one training step (forward, loss, backward, optimizer) on a
// 32-row batch of the workload's deepest client architecture and of its
// server architecture, and one inference pass.
func probeNN(w *workload, tw *twin, p *prober, m metricValues) {
	spec := tw.in.Env.Spec
	clientArch := "ResNet20"
	if w.Hetero {
		clientArch = "ResNet29"
	}
	step := func(arch string) (train, infer float64) {
		rng := stats.NewRNG(11)
		net, err := models.BuildNamed(rng, arch, spec.InputDim, spec.Classes)
		if err != nil {
			panic(err) // the names are constants of this file
		}
		const batch = 32
		x := tensor.Randn(rng, batch, spec.InputDim, 1)
		labels := make([]int, batch)
		for i := range labels {
			labels[i] = i % spec.Classes
		}
		grad := tensor.New(batch, spec.Classes)
		params := net.Params()
		opt := nn.NewAdam(0.001)
		train = p.run("nn", arch+"/step", 0, func() {
			logits := net.Forward(x, true)
			nn.SoftmaxCrossEntropyInto(grad, logits, labels)
			nn.ZeroGrads(params)
			net.Backward(grad, nil)
			opt.Step(params)
		})
		infer = p.run("nn", arch+"/infer", 0, func() { net.Forward(x, false) })
		return train, infer / batch
	}
	train, infer := step(clientArch)
	m["nn.client_step_us"] = train * 1e6
	m["nn.infer_us_per_sample"] = infer * 1e6
	if w.Algo == expt.AlgoFedPKD {
		// FedPKD's server distils into a ResNet56; FedAvg trains nothing
		// on the server.
		train, _ := step("ResNet56")
		m["nn.server_step_us"] = train * 1e6
	}
}

// probeReduce times the flat server's collect-then-sort against the tree's
// per-shard sorted inserts plus validating merge on synthetic cohorts, the
// only place thousand-client rounds show until a workload can afford them.
func probeReduce(p *prober, m metricValues) {
	const dim = 64
	for _, tc := range []struct {
		label     string
		n, shards int
	}{{"1k", 1_000, 32}, {"10k", 10_000, 100}} {
		ups := make([]engine.Upload, tc.n)
		for c := range ups {
			ups[c] = engine.Upload{Client: c, Payload: &engine.Payload{Params: make([]float64, dim), NumSamples: 1}}
		}
		order := rand.New(rand.NewSource(11)).Perm(tc.n)
		flat := p.run("engine", "reduce_flat_"+tc.label, 0, func() {
			got := make([]engine.Upload, 0, tc.n)
			for _, c := range order {
				got = append(got, ups[c])
			}
			sort.Slice(got, func(a, z int) bool { return got[a].Client < got[z].Client })
		})
		tree := p.run("engine", "reduce_tree_"+tc.label, 0, func() {
			parts := make([]*engine.Partial, tc.shards)
			for s := range parts {
				parts[s] = engine.NewExactPartial(s)
			}
			for _, c := range order {
				if err := parts[c*tc.shards/tc.n].Insert(ups[c]); err != nil {
					panic(err) // ids are distinct by construction
				}
			}
			if _, err := engine.MergeExact(parts); err != nil {
				panic(err)
			}
		})
		m["engine.reduce_flat_"+tc.label+"_us_per_upload"] = flat * 1e6 / float64(tc.n)
		m["engine.reduce_tree_"+tc.label+"_us_per_upload"] = tree * 1e6 / float64(tc.n)
	}
}

// section is one block of values as the codec packs it; ref is the delta
// reference of a params block.
type section struct {
	kind       comm.Section
	vals       []float64
	rows, cols int
	ref        []float64
}

// sections lists what codec c packs out of a payload.
func sections(p *engine.Payload, c comm.Codec, ref []float64) []section {
	if p == nil {
		return nil
	}
	var out []section
	if p.Logits != nil && !p.LogitsLocal {
		out = append(out, section{kind: c.LogitsSection(), vals: p.Logits.Data, rows: p.Logits.Rows, cols: p.Logits.Cols})
	}
	if p.Protos != nil && p.Protos.Len() > 0 {
		var vals []float64
		for class := 0; class < p.Protos.Classes; class++ {
			vals = append(vals, p.Protos.Vectors[class]...)
		}
		out = append(out, section{kind: c.ProtoSection(), vals: vals, rows: p.Protos.Len(), cols: p.Protos.Dim})
	}
	if len(p.Params) > 0 {
		if len(ref) != len(p.Params) {
			ref = nil
		}
		out = append(out, section{kind: c.ParamsSection(ref != nil), vals: p.Params, rows: 1, cols: len(p.Params), ref: ref})
	}
	return out
}

// probeCodec times comm.EncodeSection / DecodeSection on the captured
// logits, prototypes and params, and Payload.ApplyCodec on whole uploads.
func probeCodec(tw *twin, p *prober, m metricValues) {
	var ref []float64
	if tw.global != nil {
		ref = tw.global.Params
	}
	secs := sections(tw.bcast, tw.codec, nil)
	for _, u := range tw.raw {
		secs = append(secs, sections(u.Payload, tw.codec, ref)...)
	}
	values := 0
	for _, s := range secs {
		values += len(s.vals)
	}
	if values == 0 {
		return
	}
	encoded := make([][]byte, len(secs))
	enc := p.run("comm", "EncodeSection", 0, func() {
		for i, s := range secs {
			b, err := comm.EncodeSection(s.kind, s.vals, s.rows, s.cols, s.ref)
			if err != nil {
				panic(err) // training arithmetic produces finite values
			}
			encoded[i] = b
		}
	})
	dec := p.run("comm", "DecodeSection", 0, func() {
		for i, s := range secs {
			if _, _, err := comm.DecodeSection(encoded[i], s.rows, s.cols, s.ref); err != nil {
				panic(err)
			}
		}
	})
	m["comm.encode_ns_per_value"] = enc * 1e9 / float64(values)
	m["comm.decode_ns_per_value"] = dec * 1e9 / float64(values)

	apply := p.run("engine", "ApplyCodec", 0, func() {
		for _, u := range tw.raw {
			u.Payload.ApplyCodec(tw.codec, ref)
		}
	})
	m["engine.apply_codec_us_per_upload"] = apply * 1e6 / float64(len(tw.raw))
}

// probeTransport walks the captured uploads down and up the wire stack the
// way a client and the server's collect loop do: PayloadToWireIn, gob
// Encode, (the fabric), gob Decode, Validate, ToPayloadRef.
func probeTransport(w *workload, tw *twin, p *prober, m metricValues) error {
	n := len(tw.raw)
	if n == 0 {
		return fmt.Errorf("twin captured no uploads")
	}
	var ref []float64
	if tw.global != nil {
		ref = tw.global.Params
	}
	round := tw.runner.CurrentRound() - 1
	per := func(sec float64) float64 { return sec * 1e6 / float64(n) }

	msgs := make([]transport.RoundUpload, n)
	m["transport.to_wire_us_per_upload"] = per(p.run("transport", "PayloadToWireIn", 0, func() {
		for i, u := range tw.raw {
			wire, err := transport.PayloadToWireIn(u.Payload, tw.codec, ref)
			if err != nil {
				panic(err)
			}
			msgs[i] = transport.RoundUpload{Round: round, Client: u.Client, HasPayload: true, Payload: wire}
		}
	}))
	encoded := make([][]byte, n)
	var gobBytes, priced int64
	enc := p.run("transport", "Encode", 0, func() {
		for i := range msgs {
			b, err := transport.Encode(msgs[i])
			if err != nil {
				panic(err)
			}
			encoded[i] = b
		}
	})
	for i, b := range encoded {
		gobBytes += int64(len(b))
		e := transport.Envelope{Kind: transport.KindUpload, From: tw.raw[i].Client, To: -1, Round: round, Payload: b}
		priced += int64(e.WireSize() - tw.raw[i].Payload.WireBytesIn(tw.codec))
	}
	decoded := make([]transport.RoundUpload, n)
	dec := p.run("transport", "Decode", gobBytes, func() {
		for i, b := range encoded {
			decoded[i] = transport.RoundUpload{}
			if err := transport.Decode(b, &decoded[i]); err != nil {
				panic(err)
			}
		}
	})
	m["transport.gob_encode_us_per_upload"] = per(enc)
	m["transport.gob_decode_us_per_upload"] = per(dec)
	m["transport.gob_mb_per_s"] = float64(gobBytes) / (1 << 20) / (enc + dec)
	m["transport.envelope_overhead_bytes"] = float64(priced) / float64(n)
	m["transport.validate_us_per_upload"] = per(p.run("transport", "Validate", 0, func() {
		for i := range decoded {
			if err := decoded[i].Validate(); err != nil {
				panic(err)
			}
		}
	}))
	m["transport.from_wire_us_per_upload"] = per(p.run("transport", "ToPayloadRef", 0, func() {
		for i := range decoded {
			if _, err := decoded[i].Payload.ToPayloadRef(ref); err != nil {
				panic(err)
			}
		}
	}))

	rtt, err := probeConn(w, p, encoded[0])
	if err != nil {
		return err
	}
	m["transport.conn_rtt_us"] = rtt * 1e6
	return nil
}

// probeConn sends one upload-sized envelope over the workload's fabric and
// waits for an empty acknowledgement: the bus, or a loopback TCP pair.
func probeConn(w *workload, p *prober, payload []byte) (float64, error) {
	var client, server transport.Conn
	var cleanup func()
	if w.Mode == distrib.ModeTCP {
		ln, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		accepted := make(chan transport.Conn, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				c = nil
			}
			accepted <- c
		}()
		client, err = transport.Dial(ln.Addr())
		if err != nil {
			ln.Close()
			<-accepted
			return 0, err
		}
		server = <-accepted
		if server == nil {
			client.Close()
			ln.Close()
			return 0, fmt.Errorf("loopback accept failed")
		}
		cleanup = func() { client.Close(); server.Close(); ln.Close() }
	} else {
		bus := transport.NewBus(1, 1)
		client, server = bus.ClientConn(0), bus.ServerConn()
		cleanup = bus.Close
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			e, err := server.Recv()
			if err != nil {
				return
			}
			if err := server.Send(&transport.Envelope{Kind: transport.KindControl, From: -1, To: e.From, Round: e.Round}); err != nil {
				return
			}
		}
	}()
	env := &transport.Envelope{Kind: transport.KindUpload, From: 0, To: -1, Payload: payload}
	var failed error
	sec := p.run("transport", "Send+Recv", int64(env.WireSize()), func() {
		if failed != nil {
			return
		}
		if err := client.Send(env); err != nil {
			failed = err
			return
		}
		if _, err := client.Recv(); err != nil {
			failed = err
		}
	})
	cleanup()
	<-echoDone
	return sec, failed
}

// probeCheckpoint plays two rounds of a same-seed copy in-process (async
// state included, so the snapshot is the one the workload writes), then
// times SaveCheckpoint on it and ResumeAny into freshly built algorithms.
func probeCheckpoint(w *workload, tw *twin, p *prober, m metricValues) error {
	dir, err := os.MkdirTemp("", "fedpkd-bench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	runner, err := w.buildOn(tw.env, tw.in, "")
	if err != nil {
		return err
	}
	if _, err := runner.Run(2); err != nil {
		return err
	}
	var path string
	var failed error
	save := p.run("ckpt", "SaveCheckpoint", 0, func() {
		if path, err = runner.SaveCheckpoint(dir); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["ckpt.save_ms_p50"] = save * 1e3
	m["ckpt.bytes"] = float64(info.Size())
	m["ckpt.save_mb_per_s"] = float64(info.Size()) / (1 << 20) / save

	var resumes []float64
	start := time.Now()
	for len(resumes) == 0 || (time.Since(start) < p.budget && len(resumes) < 5) {
		fresh, err := w.buildOn(tw.env, tw.in, "")
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := fresh.ResumeAny(path); err != nil {
			return err
		}
		resumes = append(resumes, time.Since(t0).Seconds())
	}
	p.tr.add(0, p.trace, "ckpt", "ResumeAny", start, time.Now(), int64(len(resumes)), info.Size())
	m["ckpt.resume_ms"] = median(resumes) * 1e3
	return nil
}

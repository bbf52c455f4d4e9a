package distrib

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/dataset"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/proto"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
	"fedpkd/internal/transport"
)

// The ladder fixture: a 4-id universe where clients 0 and 1 form the round's
// cohort, client 2 is registered but not scheduled, and client 3 never
// registered.
const ladderUniverse = 4

var ladderCohort = []int{0, 1}

// ladderPayload is the deterministic upload every ladder sender encodes; the
// same seed on every call, so a decoded upload can be compared against an
// independent ApplyCodec of the same values.
func ladderPayload(params []float64) *engine.Payload {
	up := &engine.Payload{
		Logits:     tensor.Randn(stats.NewRNG(77), 2, 5, 1),
		Protos:     proto.NewSet(3, 4),
		Params:     params,
		NumSamples: 7,
	}
	up.Protos.Vectors[1] = []float64{1, -2, 3, -4}
	up.Protos.Counts[1] = 5
	return up
}

// ladderRun is one collector run's wiring: the bus the row sends on, the
// inbox behind it, the round index, and the plan's delta references.
type ladderRun struct {
	t     *testing.T
	bus   *transport.Bus
	rx    *receiver
	round int
	ref   func(client int) []float64
}

// ladderPlanes returns the two planes as NewService derives them for a strict
// run or for a tolerant one (both deadlines set, no fault plan).
func ladderPlanes(strict bool) (clients, tier *plane) {
	opts := &Options{}
	if !strict {
		opts.ClientTimeout, opts.LeafTimeout = 2*time.Second, 2*time.Second
	}
	return newPlanes(opts, testClock(ModeBus))
}

// checkLadderCounters asserts that a collect moved exactly the counter named
// class — and only in tolerant mode.
func checkLadderCounters(t *testing.T, pl *plane, strict bool, class string) {
	t.Helper()
	counters := map[string]*atomic.Int64{"stale": &pl.stale, "dup": &pl.dup, "corrupt": &pl.corrupt,
		"unknown": &pl.unknown, "retries": &pl.retries, "timeouts": &pl.timeouts}
	for name, ctr := range counters {
		want := int64(0)
		if !strict && name == class {
			want = 1
		}
		if got := ctr.Load(); got != want {
			t.Errorf("%s counter = %d, want %d", name, got, want)
		}
	}
}

// envelope sends e on conn's client connection as-is.
func (h *ladderRun) envelope(conn int, e *transport.Envelope) {
	h.t.Helper()
	if err := h.bus.ClientConn(conn).Send(e); err != nil {
		h.t.Fatal(err)
	}
}

// upload sends ru from peer `from`, stamped with the current round.
func (h *ladderRun) upload(from int, ru transport.RoundUpload) {
	h.t.Helper()
	payload, err := transport.Encode(ru)
	if err != nil {
		h.t.Fatal(err)
	}
	h.envelope(from, &transport.Envelope{Kind: transport.KindUpload, From: from, To: -1, Round: h.round, Payload: payload})
}

// coded returns client's ladder payload on the wire: params delta-coded
// against ref under codec, after an optional corruption hook.
func (h *ladderRun) coded(client int, codec comm.Codec, params, ref []float64, corrupt func(*transport.WirePayload)) transport.RoundUpload {
	h.t.Helper()
	w, err := transport.PayloadToWireIn(ladderPayload(params), codec, ref)
	if err != nil {
		h.t.Fatal(err)
	}
	if corrupt != nil {
		corrupt(&w)
	}
	return transport.RoundUpload{Round: h.round, Client: client, HasPayload: true, Payload: w}
}

// valid returns the upload a healthy cohort member sends: int8, delta-coded
// against the reference the plan holds for it.
func (h *ladderRun) valid(client int) transport.RoundUpload {
	return h.coded(client, comm.CodecInt8, []float64{0.5, -1.25, 2}, h.ref(client), nil)
}

// digestRun is one tier-plane collector run's wiring: the root's inbox, fed
// directly, and the round index.
type digestRun struct {
	t     *testing.T
	rx    inbox
	round int
}

func (h *digestRun) envelope(e *transport.Envelope) { h.rx <- recvResult{e: e} }

// digest delivers d as leaf `from`'s digest, stamped with the current round.
func (h *digestRun) digest(from int, d transport.ShardDigest) {
	h.t.Helper()
	payload, err := transport.Encode(d)
	if err != nil {
		h.t.Fatal(err)
	}
	h.envelope(&transport.Envelope{Kind: transport.KindShardDigest, From: from, To: -1, Round: h.round, Payload: payload})
}

// TestCollectorLadder walks the upload validation ladder one rung per row.
// Every row runs strict (the rung's error becomes the round error and the
// collect stops there) and tolerant (exactly one counter moves, the envelope
// is dropped, and the round completes from the healthy uploads behind it),
// under a shared-reference plan (a synchronous round) and a
// per-client-reference plan (a flush), both on the int8 wire. In every case
// the rejected upload never reaches the sink. The digest ladder then runs
// through the same loop under the tier plane — including the decisions no
// seeded fault plan reaches (a header-corrupt digest, a dead tier link).
func TestCollectorLadder(t *testing.T) {
	runner, err := engine.Of(chaosFedAvg(t, chaosEnv(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.SetCodec(comm.CodecInt8); err != nil {
		t.Fatal(err)
	}
	round := runner.BeginRound()
	ledger := runner.Ledger()

	rows := []struct {
		name string
		// send delivers the row's envelopes; the harness then sends a valid
		// upload for every cohort member not listed in heard.
		send func(h *ladderRun)
		// class names the one counter tolerant mode moves ("" for none).
		class string
		// wantIs / wantText describe the round error: in strict mode always,
		// in tolerant mode too when bothModes is set. wantFatal is the text of
		// the run-aborting error a strict collect returns instead.
		wantIs    error
		wantText  string
		bothModes bool
		wantFatal string
		// heard lists the cohort members the row's own envelopes mark as
		// heard from; sunk those whose payload they deliver to the sink.
		heard, sunk []int
		// after runs extra assertions once the collect returned.
		after func(t *testing.T, reg *Registry, control int64)
	}{
		{name: "wrong kind", class: "stale", wantText: "unexpected message kind",
			send: func(h *ladderRun) {
				h.envelope(0, &transport.Envelope{Kind: transport.KindRoundEnd, From: 0, To: -1, Round: h.round})
			}},
		{name: "stale round", class: "stale", wantIs: ErrStaleEnvelope,
			send: func(h *ladderRun) {
				payload, _ := transport.Encode(transport.RoundUpload{Round: h.round + 5, Client: 0})
				h.envelope(0, &transport.Envelope{Kind: transport.KindUpload, From: 0, To: -1, Round: h.round + 5, Payload: payload})
			}},
		{name: "out-of-range From", class: "stale", wantIs: ErrPeerMismatch,
			send: func(h *ladderRun) {
				h.envelope(0, &transport.Envelope{Kind: transport.KindUpload, From: 9, To: -1, Round: h.round})
			}},
		{name: "unregistered", class: "unknown", wantIs: ErrUnknownClient,
			send: func(h *ladderRun) { h.upload(3, transport.RoundUpload{Round: h.round, Client: 3}) }},
		{name: "undecodable", class: "corrupt", wantText: "decode payload",
			send: func(h *ladderRun) {
				h.envelope(0, &transport.Envelope{Kind: transport.KindUpload, From: 0, To: -1, Round: h.round, Payload: []byte{0xde, 0xad}})
			}},
		{name: "invalid", class: "corrupt", wantText: "negative client id",
			send: func(h *ladderRun) { h.upload(0, transport.RoundUpload{Round: h.round, Client: -1}) }},
		{name: "bit-flipped section", class: "corrupt", wantIs: comm.ErrSectionChecksum,
			send: func(h *ladderRun) {
				h.upload(0, h.coded(0, comm.CodecInt8, []float64{0.5, -1.25, 2}, h.ref(0), func(w *transport.WirePayload) {
					w.LogitsEnc[len(w.LogitsEnc)-1] ^= 0x01
				}))
			}},
		{name: "codec mismatch", class: "corrupt", wantIs: ErrCodecMismatch,
			send: func(h *ladderRun) {
				// Sent by the out-of-cohort peer: the codec rung sits above peer
				// identity, so it is what rejects the upload.
				h.upload(2, h.coded(2, comm.CodecFloat64, []float64{0.5, -1.25, 2}, nil, nil))
			}},
		{name: "client out of range", class: "corrupt", wantText: "out of range",
			send: func(h *ladderRun) { h.upload(0, transport.RoundUpload{Round: h.round, Client: 9}) }},
		{name: "label != peer", class: "corrupt", wantIs: ErrPeerMismatch,
			send: func(h *ladderRun) { h.upload(0, transport.RoundUpload{Round: h.round, Client: 1}) }},
		{name: "out of cohort", class: "stale", wantIs: ErrStaleEnvelope,
			send: func(h *ladderRun) { h.upload(2, h.valid(2)) }},
		{name: "payload round", class: "stale", wantIs: ErrStaleEnvelope,
			send: func(h *ladderRun) { h.upload(0, transport.RoundUpload{Round: h.round + 1, Client: 0}) }},
		{name: "duplicate", class: "dup", wantIs: ErrDuplicateUpload, heard: []int{1}, sunk: []int{1},
			send: func(h *ladderRun) {
				h.upload(1, h.valid(1))
				h.upload(1, h.valid(1))
			}},
		{name: "client Err", wantText: "client 0: boom", bothModes: true, heard: []int{0},
			send: func(h *ladderRun) { h.upload(0, transport.RoundUpload{Round: h.round, Client: 0, Err: "boom"}) }},
		{name: "no payload", heard: []int{1},
			// Heard from, nothing to aggregate: no counter, no error, no sink.
			send: func(h *ladderRun) { h.upload(1, transport.RoundUpload{Round: h.round, Client: 1}) }},
		{name: "bad delta reference", class: "corrupt", wantIs: comm.ErrSectionRef, heard: []int{0},
			// Delta-coded against a four-value global the plan never held: the
			// client counts as heard, its payload is dropped.
			send: func(h *ladderRun) {
				h.upload(0, h.coded(0, comm.CodecInt8, []float64{0.5, -1.25, 2, 1}, []float64{1, 2, 3, 4}, nil))
			}},
		{name: "peer gone", wantFatal: "client plane recv",
			// A dead connection is not a dead client: the tolerant client plane
			// skips the report and still accepts the peer's upload.
			send: func(h *ladderRun) { h.rx.inbox <- recvResult{err: &peerGoneError{id: 0, err: io.EOF}} }},
		{name: "mid-round hello and goodbye",
			send: func(h *ladderRun) {
				h.envelope(3, &transport.Envelope{Kind: transport.KindHello, From: 3, To: -1, Round: -1})
				h.envelope(2, &transport.Envelope{Kind: transport.KindGoodbye, From: 2, To: -1, Round: -1})
			},
			after: func(t *testing.T, reg *Registry, control int64) {
				want := int64((&transport.Envelope{Kind: transport.KindHello, From: 3, To: -1, Round: -1}).WireSize() +
					(&transport.Envelope{Kind: transport.KindGoodbye, From: 2, To: -1, Round: -1}).WireSize())
				if control != want {
					t.Errorf("control bytes billed = %d, want %d", control, want)
				}
				if reg.Has(3) || !reg.Has(2) {
					t.Error("registration applied mid-round; must wait for the barrier")
				}
				if j, l := reg.ApplyPending(); j != 1 || l != 1 || !reg.Has(3) || reg.Has(2) {
					t.Errorf("barrier apply: joins=%d leaves=%d Has(3)=%v Has(2)=%v", j, l, reg.Has(3), reg.Has(2))
				}
			}},
	}

	sharedRef := []float64{0.25, -0.5, 1.5}
	ownRefs := map[int][]float64{0: {0.25, -0.5, 1.5}, 1: {-1, 0.75, 0.125}, 2: {2, 2, 2}}
	plans := []struct {
		name string
		ref  func(client int) []float64
	}{
		{"shared-ref", func(int) []float64 { return sharedRef }},
		{"per-client-ref", func(c int) []float64 { return ownRefs[c] }},
	}

	for _, plan := range plans {
		for _, row := range rows {
			for _, strict := range []bool{true, false} {
				mode := "tolerant"
				if strict {
					mode = "strict"
				}
				t.Run(plan.name+"/"+row.name+"/"+mode, func(t *testing.T) {
					bus := transport.NewBus(ladderUniverse, 16)
					defer bus.Close()
					rx := newReceiver(bus.ServerConn())
					defer rx.stop()
					reg, err := NewRegistry(ladderUniverse, []int{0, 1, 2})
					if err != nil {
						t.Fatal(err)
					}
					h := &ladderRun{t: t, bus: bus, rx: rx, round: round, ref: plan.ref}
					row.send(h)
					wantSunk := append([]int(nil), row.sunk...)
					for _, c := range ladderCohort {
						if !slices.Contains(row.heard, c) {
							h.upload(c, h.valid(c))
							wantSunk = append(wantSunk, c)
						}
					}
					sort.Ints(wantSunk)

					pl, _ := ladderPlanes(strict)
					var sunk []engine.Upload
					s := &Service{runner: runner, n: ladderUniverse, reg: reg}
					rungs := s.uploadLadder("round", plan.ref, func(u engine.Upload, _ transport.WirePayload) error { sunk = append(sunk, u); return nil })
					controlBefore := lastControl(ledger)
					report, roundErr, err := newCollector(pl, rx.inbox, round, ladderCohort, rungs).collect()
					if strict && row.wantFatal != "" {
						if err == nil || !strings.Contains(err.Error(), row.wantFatal) {
							t.Fatalf("err = %v, want a run-aborting %q", err, row.wantFatal)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}

					wantErr := row.wantIs != nil || row.wantText != ""
					if wantErr && (strict || row.bothModes) {
						if roundErr == nil {
							t.Fatal("roundErr = nil, want the rung's error")
						}
						if row.wantIs != nil && !errors.Is(roundErr, row.wantIs) {
							t.Fatalf("roundErr = %v, want %v", roundErr, row.wantIs)
						}
						if !strings.Contains(roundErr.Error(), row.wantText) {
							t.Fatalf("roundErr = %v, want text %q", roundErr, row.wantText)
						}
						if row.wantIs == nil {
							// The unnamed rungs must not borrow a named error.
							for _, named := range []error{ErrStaleEnvelope, ErrPeerMismatch, ErrDuplicateUpload, ErrUnknownClient, ErrCodecMismatch} {
								if errors.Is(roundErr, named) {
									t.Fatalf("roundErr = %v must not match %v", roundErr, named)
								}
							}
						}
						// The collect stopped at the rung: only what the row itself
						// delivered before it reached the sink.
						wantSunk = row.sunk
					} else {
						if roundErr != nil {
							t.Fatalf("roundErr = %v, want nil", roundErr)
						}
						if report.cohort != len(ladderCohort) || len(report.missing) != 0 {
							t.Fatalf("report = %+v, want the full cohort heard", report)
						}
					}

					checkLadderCounters(t, pl, strict, row.class)

					var gotSunk []int
					for _, u := range sunk {
						gotSunk = append(gotSunk, u.Client)
						// Accepted uploads decode to exactly what the in-process
						// engine computes for the same values and reference.
						want := ladderPayload([]float64{0.5, -1.25, 2}).ApplyCodec(comm.CodecInt8, plan.ref(u.Client))
						if !reflect.DeepEqual(u.Payload.Params, want.Params) ||
							!reflect.DeepEqual(u.Payload.Logits.Data, want.Logits.Data) ||
							!reflect.DeepEqual(u.Payload.Protos.Vectors, want.Protos.Vectors) {
							t.Errorf("client %d's decoded upload diverges from ApplyCodec", u.Client)
						}
					}
					sort.Ints(gotSunk)
					if fmt.Sprint(gotSunk) != fmt.Sprint(wantSunk) {
						t.Errorf("sink saw clients %v, want %v", gotSunk, wantSunk)
					}
					if row.after != nil {
						row.after(t, reg, lastControl(ledger)-controlBefore)
					}
				})
			}
		}
	}

	const shards = 3
	digestRows := []struct {
		name string
		// send delivers the row's traffic; the harness then sends a valid
		// digest for every shard not listed in settled.
		send func(h *digestRun)
		// class names the one counter the tolerant tier moves ("" for none);
		// wantFatal is the text of the error that aborts a strict run.
		class, wantFatal string
		// lost lists the shards the tolerant tier writes off; settled those
		// the row's own traffic already decided.
		lost, settled []int
	}{
		{name: "wrong kind", class: "stale", wantFatal: "root got kind",
			send: func(h *digestRun) {
				h.envelope(&transport.Envelope{Kind: transport.KindUpload, From: 0, To: -1, Round: h.round})
			}},
		{name: "stale round", class: "stale", wantFatal: "root got kind",
			send: func(h *digestRun) {
				h.envelope(&transport.Envelope{Kind: transport.KindShardDigest, From: 0, To: -1, Round: h.round + 5})
			}},
		{name: "undecodable", class: "corrupt", wantFatal: "decode payload", lost: []int{0}, settled: []int{0},
			send: func(h *digestRun) {
				h.envelope(&transport.Envelope{Kind: transport.KindShardDigest, From: 0, To: -1, Round: h.round, Payload: []byte{0xde, 0xad}})
			}},
		{name: "invalid", class: "corrupt", wantFatal: "heard -1 out of range", lost: []int{1}, settled: []int{1},
			send: func(h *digestRun) { h.digest(1, transport.ShardDigest{Round: h.round, Shard: 1, Heard: -1}) }},
		{name: "upload without its reference", class: "corrupt", wantFatal: "shard 1 digest: client 4: transport: decode params", lost: []int{1}, settled: []int{1},
			// The root decodes forwarded uploads as it files them: a
			// delta-coded params section it holds no reference for is the
			// leaf's fault, not a round error.
			send: func(h *digestRun) {
				w, err := transport.PayloadToWireIn(&engine.Payload{Params: []float64{0.5, -1.25}}, comm.CodecInt8, []float64{1, 2})
				if err != nil {
					h.t.Fatal(err)
				}
				h.digest(1, transport.ShardDigest{Round: h.round, Shard: 1, Uploads: []transport.ShardUpload{{Client: 4, Payload: w}}})
			}},
		{name: "shard != leaf", class: "corrupt", wantFatal: "labeled shard 1 arrived from leaf 0", lost: []int{0}, settled: []int{0},
			// The garbage is pinned on the link it arrived on, not the shard it
			// names: shard 1's own digest is still accepted.
			send: func(h *digestRun) { h.digest(0, transport.ShardDigest{Round: h.round, Shard: 1}) }},
		{name: "shard out of range", class: "corrupt", wantFatal: "labeled shard 9 arrived from leaf 9",
			send: func(h *digestRun) { h.digest(9, transport.ShardDigest{Round: h.round, Shard: 9}) }},
		{name: "duplicate", class: "dup", wantFatal: "duplicate digest from shard 2", settled: []int{2},
			send: func(h *digestRun) {
				h.digest(2, transport.ShardDigest{Round: h.round, Shard: 2})
				h.digest(2, transport.ShardDigest{Round: h.round, Shard: 2})
			}},
		{name: "peer gone", wantFatal: "tier plane recv", lost: []int{1}, settled: []int{1},
			send: func(h *digestRun) { h.rx <- recvResult{err: &peerGoneError{id: 1, err: io.EOF}} }},
		{name: "written-off shard", class: "dup", wantFatal: "tier plane recv", lost: []int{1}, settled: []int{1},
			// A leaf whose link died is not re-admitted by a digest that still
			// trickles in.
			send: func(h *digestRun) {
				h.rx <- recvResult{err: &peerGoneError{id: 1, err: io.EOF}}
				h.digest(1, transport.ShardDigest{Round: h.round, Shard: 1})
			}},
	}
	for _, row := range digestRows {
		for _, strict := range []bool{true, false} {
			mode := "tolerant"
			if strict {
				mode = "strict"
			}
			t.Run("digest/"+row.name+"/"+mode, func(t *testing.T) {
				h := &digestRun{t: t, rx: make(inbox, 16), round: round}
				row.send(h)
				for shard := 0; shard < shards; shard++ {
					if !slices.Contains(row.settled, shard) {
						h.digest(shard, transport.ShardDigest{Round: round, Shard: shard})
					}
				}
				_, pl := ladderPlanes(strict)
				r := &root{children: make([]shardChild, shards)}
				digests := make([]*transport.ShardDigest, shards)
				noRef := func(int) []float64 { return nil }
				report, roundErr, err := newCollector(pl, h.rx, round, []int{0, 1, 2},
					r.digestLadder(digests, make([]*engine.Partial, shards), noRef)).collect()
				if strict {
					// The tier's links are infrastructure: a violation aborts the
					// run, it is never a round error.
					if err == nil || roundErr != nil || !strings.Contains(err.Error(), row.wantFatal) {
						t.Fatalf("err = %v, roundErr = %v, want a run-aborting %q", err, roundErr, row.wantFatal)
					}
					return
				}
				if err != nil || roundErr != nil {
					t.Fatalf("err = %v, roundErr = %v, want neither", err, roundErr)
				}
				checkLadderCounters(t, pl, strict, row.class)
				if fmt.Sprint(report.missing) != fmt.Sprint(append([]int{}, row.lost...)) {
					t.Errorf("missing shards = %v, want %v written off", report.missing, row.lost)
				}
				for shard, d := range digests {
					if want := !slices.Contains(row.lost, shard); (d != nil) != want {
						t.Errorf("shard %d: digest filed = %v, want %v", shard, d != nil, want)
					} else if want && r.children[shard].health.LastDigestRound != round {
						t.Errorf("shard %d: health not refreshed on accept", shard)
					}
				}
			})
		}
	}
}

// lastControl returns the control bytes billed to the ledger's open round.
func lastControl(l *comm.Ledger) int64 {
	rounds := l.Rounds()
	return rounds[len(rounds)-1].Control
}

// TestCollectLiveness pins, on both planes, the two ways a collect ends
// without hearing from every child. A tolerant collect gives up at the
// plane's deadline and counts the silent child as timed out. A strict collect
// has no deadline: it ends only when its inbox does — the fabric torn down —
// and then with a run-aborting error, which is all the root's former
// one-second wait slices amounted to.
func TestCollectLiveness(t *testing.T) {
	noLadder := func(*collector, *transport.Envelope) {}
	for _, tier := range []bool{false, true} {
		name := "client"
		if tier {
			name = "tier"
		}
		pick := func(opts *Options) *plane {
			clients, tr := newPlanes(opts, testClock(ModeBus))
			if tier {
				return tr
			}
			return clients
		}
		t.Run(name+"/deadline", func(t *testing.T) {
			pl := pick(&Options{ClientTimeout: 20 * time.Millisecond, LeafTimeout: 20 * time.Millisecond})
			report, roundErr, err := newCollector(pl, make(inbox, 1), 0, []int{0, 1}, noLadder).collect()
			if err != nil || roundErr != nil {
				t.Fatalf("err = %v, roundErr = %v, want neither", err, roundErr)
			}
			if report.cohort != 0 || fmt.Sprint(report.missing) != "[0 1]" || pl.timeouts.Load() != 2 {
				t.Fatalf("report = %+v, timeouts = %d; want both children timed out", report, pl.timeouts.Load())
			}
		})
		t.Run(name+"/strict ends with the fabric", func(t *testing.T) {
			rx := make(inbox, 1)
			done := make(chan error, 1)
			go func() {
				_, _, err := newCollector(pick(&Options{}), rx, 0, []int{0, 1}, noLadder).collect()
				done <- err
			}()
			close(rx) // what a fabric's teardown does once its pumps exit
			select {
			case err := <-done:
				if !errors.Is(err, io.EOF) {
					t.Fatalf("err = %v, want the inbox's EOF", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("strict collect outlived its inbox")
			}
		})
	}
}

// TestRootStateIsPerShard holds the root to shard-sized state whatever the
// population: it knows its leaves as children with id ranges, and its collect
// keeps one entry per shard — at 8 clients as at 64.
func TestRootStateIsPerShard(t *testing.T) {
	const shards = 4
	for _, n := range []int{8, 64} {
		spec := dataset.SynthC10(23)
		env, err := fl.NewEnv(fl.EnvConfig{
			Spec: spec, NumClients: n,
			TrainSize: 10 * n, TestSize: 20, PublicSize: 20, LocalTestSize: 10,
			Partition: fl.PartitionConfig{Kind: fl.PartitionIID},
			Seed:      23,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewService(chaosFedAvg(t, env), Options{Topology: Topology{Shards: shards}})
		if err != nil {
			t.Fatal(err)
		}
		col := s.root.collector(0, nil)
		if len(s.root.children) != shards || len(col.children) != shards || len(col.state) != shards {
			t.Errorf("%d clients: root has %d children, its collect awaits %d with %d state entries; want %d each",
				n, len(s.root.children), len(col.children), len(col.state), shards)
		}
		// The children's id ranges are ShardOf's partition.
		fleet := make([]int, n)
		for c := range fleet {
			fleet[c] = c
		}
		for shard, members := range s.root.shardCohorts(fleet) {
			for _, c := range members {
				if ShardOf(c, n, shards) != shard {
					t.Errorf("%d clients: client %d filed under shard %d, ShardOf says %d", n, c, shard, ShardOf(c, n, shards))
				}
			}
		}
		s.Close()
	}
}

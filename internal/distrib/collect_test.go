package distrib

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedpkd/internal/comm"
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
// round index, and the plan's delta references.
type ladderRun struct {
	t     *testing.T
	bus   *transport.Bus
	round int
	ref   func(client int) []float64
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

// TestCollectorLadder walks the upload validation ladder one rung per row.
// Every row runs strict (the rung's error becomes the round error and the
// collect stops there) and tolerant (exactly one counter moves, the envelope
// is dropped, and the round completes from the healthy uploads behind it),
// under a shared-reference plan (a synchronous round) and a
// per-client-reference plan (a flush), both on the int8 wire. In every case
// the rejected upload never reaches the sink.
func TestCollectorLadder(t *testing.T) {
	runner, err := engine.Of(chaosFedAvg(t, chaosEnv(t)))
	if err != nil {
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
		// in tolerant mode too when bothModes is set.
		wantIs    error
		wantText  string
		bothModes bool
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
					h := &ladderRun{t: t, bus: bus, round: round, ref: plan.ref}
					row.send(h)
					wantSunk := append([]int(nil), row.sunk...)
					for _, c := range ladderCohort {
						if !slices.Contains(row.heard, c) {
							h.upload(c, h.valid(c))
							wantSunk = append(wantSunk, c)
						}
					}
					sort.Ints(wantSunk)

					rs := &roundStats{strict: strict}
					var sunk []engine.Upload
					col := &collector{
						t: round, noun: "round", n: ladderUniverse, cohort: ladderCohort, ref: plan.ref,
						codec: comm.CodecInt8, ledger: ledger, reg: reg, rs: rs,
						sink: func(u engine.Upload) error { sunk = append(sunk, u); return nil },
					}
					if !strict {
						col.timeout = 2 * time.Second
					}
					controlBefore := lastControl(ledger)
					report, roundErr, err := col.collect(rx)
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

					counters := map[string]*atomic.Int64{"stale": &rs.stale, "dup": &rs.dup, "corrupt": &rs.corrupt, "unknown": &rs.unknown}
					for name, ctr := range counters {
						want := int64(0)
						if !strict && name == row.class {
							want = 1
						}
						if got := ctr.Load(); got != want {
							t.Errorf("%s counter = %d, want %d", name, got, want)
						}
					}

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
}

// lastControl returns the control bytes billed to the ledger's open round.
func lastControl(l *comm.Ledger) int64 {
	rounds := l.Rounds()
	return rounds[len(rounds)-1].Control
}

package distrib

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// TestServiceGoroutines pins the shape of a parked service: the goroutines
// it runs after one round, counted by moduleGoroutines (so the nn lane and the
// runtime's own goroutines do not count). Each client
// has a worker and a receiver pump. Each fabric's aggregator end has one pump
// for the bus's server endpoint, or one per client socket plus the accept
// loop. A tree adds a worker per leaf and the leaf↔root fabric's end. No
// goroutine relays envelopes from one of the package's channels to another.
func TestServiceGoroutines(t *testing.T) {
	const n, shards = 4, 2
	for _, tc := range []struct {
		name   string
		mode   Mode
		shards int
		want   int
	}{
		{"bus flat", ModeBus, 0, 2*n + 1},
		{"tcp flat", ModeTCP, 0, 3*n + 1},
		{"bus tree", ModeBus, shards, 2*n + shards + 2},
		{"tcp tree", ModeTCP, shards, 3*n + 2*shards + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := moduleGoroutines(nil)
			svc, err := NewService(chaosFedAvg(t, treeChaosEnv(t)), Options{Mode: tc.mode, Topology: Topology{Shards: tc.shards}})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if _, err := svc.Run(1); err != nil {
				t.Fatal(err)
			}
			settleGoroutines(t, before, tc.want)
		})
	}
}

// moduleGoroutines returns the ids of the live goroutines this module's code
// created, leaving out the nn lane (one per process, started on first use)
// and those in skip.
func moduleGoroutines(skip map[int]bool) map[int]bool {
	ids := make(map[int]bool)
	for _, g := range goroutineStacks() {
		header, _, _ := strings.Cut(g, " [")
		id, err := strconv.Atoi(strings.TrimPrefix(header, "goroutine "))
		if err == nil && !skip[id] && strings.Contains(g, "\ncreated by fedpkd/") &&
			!strings.Contains(g, "\ncreated by fedpkd/internal/nn.") {
			ids[id] = true
		}
	}
	return ids
}

// settleGoroutines waits until exactly want of the goroutines the module
// started since before are live, polling every 10 ms for up to five seconds
// (an attach handshake's goroutine, or a torn-down pump, may still be on its
// way out), and fails with the last count otherwise.
func settleGoroutines(t *testing.T, before map[int]bool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := len(moduleGoroutines(before))
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines the run started are live five seconds on, want %d", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wireCounter adds up the wire size of every envelope its conn sends or
// receives.
type wireCounter struct {
	transport.Conn
	bytes *atomic.Int64
}

func (w wireCounter) Send(e *transport.Envelope) error {
	err := w.Conn.Send(e)
	if err == nil {
		w.bytes.Add(int64(e.WireSize()))
	}
	return err
}

func (w wireCounter) Recv() (*transport.Envelope, error) {
	e, err := w.Conn.Recv()
	if err == nil {
		w.bytes.Add(int64(e.WireSize()))
	}
	return e, err
}

// ledgerBytes sums every ledger row's client-plane total and tier backhaul.
func ledgerBytes(l *comm.Ledger) int64 {
	var sum int64
	for _, r := range l.Rounds() {
		sum += r.Total() + r.TierUp + r.TierDown
	}
	return sum
}

// TestLedgerIsWireBytes is the ledger's conservation law: a strict run bills
// exactly the bytes that cross the client-side conns of both fabrics — a
// client's and a leaf's — sent and received, measured at every barrier and
// after the last round. It holds on both wires, flat and as a tree, for
// synchronous float64raw FedAvg and for async int8 FedPKD.
func TestLedgerIsWireBytes(t *testing.T) {
	var wire atomic.Int64
	defer func(orig func(transport.Conn) transport.Conn) { clientEnd = orig }(clientEnd)
	clientEnd = func(c transport.Conn) transport.Conn { return wireCounter{c, &wire} }

	algos := []struct {
		name string
		make func(t *testing.T) fl.Algorithm
	}{
		{"fedavg-float64raw", func(t *testing.T) fl.Algorithm { return chaosFedAvg(t, chaosEnv(t)) }},
		{"fedpkd-async-int8", func(t *testing.T) fl.Algorithm {
			algo := asyncFedPKD(t)
			r, err := engine.Of(algo)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.SetCodec(comm.CodecInt8); err != nil {
				t.Fatal(err)
			}
			return algo
		}},
	}
	for _, mode := range []Mode{ModeBus, ModeTCP} {
		for _, shards := range []int{0, 2} {
			for _, a := range algos {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", mode, shards, a.name), func(t *testing.T) {
					wire.Store(0)
					var svc *Service
					svc, err := NewService(a.make(t), Options{
						Mode:     mode,
						Topology: Topology{Shards: shards},
						Barrier: func(round int) error {
							if billed, seen := ledgerBytes(svc.runner.Ledger()), wire.Load(); billed != seen {
								t.Errorf("before round %d: ledger billed %d bytes, the conns saw %d", round, billed, seen)
							}
							return nil
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					defer svc.Close()
					if _, err := svc.Run(3); err != nil {
						t.Fatal(err)
					}
					billed, seen := ledgerBytes(svc.runner.Ledger()), wire.Load()
					if billed != seen || seen == 0 {
						t.Errorf("after the run: ledger billed %d bytes, the conns saw %d", billed, seen)
					}
				})
			}
		}
	}
}

// TestTraceBytesAreLedgerRowsUnderChaos holds the one-counter contract of
// byte accounting under chaos: every closed round trace carries exactly its
// round's ledger row in its seven byte columns, while retries, duplicates and
// corrupt envelopes bill bytes from many goroutines at once. FedPKD runs
// under float32 through a two-shard bus tree, on the virtual clock, and must
// bill the raw and tier columns and inject faults. The root package's
// TestTraceBytesAreLedgerRows runs the fault-free legs.
func TestTraceBytesAreLedgerRowsUnderChaos(t *testing.T) {
	const rounds = 3
	algo := chaosFedPKD(t, chaosEnv(t))
	r, err := engine.Of(algo)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetCodec(comm.CodecFloat32); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder("fedpkd")
	if _, _, err := runFaults(t, algo, rounds, Options{
		Mode: ModeBus, Recorder: rec, Topology: Topology{Shards: 2},
		Faults:        &faults.Plan{Seed: 3, DropProb: 0.1, DupProb: 0.1, CorruptProb: 0.1},
		ClientTimeout: chaosTimeout, LeafTimeout: chaosTimeout,
	}); err != nil {
		t.Fatal(err)
	}
	rows, traces := r.Ledger().Rounds(), rec.Traces()
	if len(traces) != rounds || len(rows) != rounds {
		t.Fatalf("%d traces and %d ledger rows, want %d of each", len(traces), len(rows), rounds)
	}
	var raw, tier, injected int64
	for i, tr := range traces {
		row := rows[i]
		raw += row.RawUpload + row.RawDownload
		tier += row.TierUp + row.TierDown
		if tr.Robustness != nil {
			injected += tr.Robustness.FaultsInjected
		}
		got := [8]int64{int64(tr.Round), tr.UploadBytes, tr.DownloadBytes, tr.ControlBytes,
			tr.UploadRawBytes, tr.DownloadRawBytes, tr.TierUpBytes, tr.TierDownBytes}
		want := [8]int64{int64(row.Round), row.Upload, row.Download, row.Control,
			row.RawUpload, row.RawDownload, row.TierUp, row.TierDown}
		if got != want {
			t.Errorf("trace %d (round, up, down, control, raw up, raw down, tier up, tier down) = %v, ledger row %v", i, got, want)
		}
	}
	if raw == 0 || tier == 0 || injected == 0 {
		t.Errorf("run billed raw %d, tier %d bytes and injected %d faults; want each above zero", raw, tier, injected)
	}
}

package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fedpkd/internal/comm"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	l := comm.NewLedger()
	r.Bind(l)
	l.StartRound(0)
	r.RoundStarted(0)
	l.AddUpload(10)
	l.AddDownload(10)
	r.SetCodec("int8")
	r.SetWorkers(4)
	r.Span(PhaseServerTrain)()
	r.ClientSpan(3)()
	r.AddBatches(2)
	r.OnRoundEnd(func(RoundTrace) {})
	r.Finish()
	if got := r.Traces(); got != nil {
		t.Errorf("nil recorder Traces() = %v, want nil", got)
	}
}

// startRound opens round t the way the engine does: the ledger's row first,
// then the trace, which closes the previous one.
func startRound(l *comm.Ledger, r *Recorder, t int) {
	l.StartRound(t)
	r.RoundStarted(t)
}

func TestRecorderRoundLifecycle(t *testing.T) {
	r := NewRecorder("TestAlgo")
	l := comm.NewLedger()
	r.Bind(l)
	var ended []RoundTrace
	r.OnRoundEnd(func(tr RoundTrace) { ended = append(ended, tr) })

	startRound(l, r, 0)
	r.SetWorkers(3)
	l.AddUpload(100)
	l.AddUpload(50)
	l.AddDownload(70)
	stop := r.ClientSpan(1)
	time.Sleep(time.Millisecond)
	stop()
	r.Span(PhaseEval)()
	r.AddBatches(2)
	r.AddBatches(3)

	startRound(l, r, 1) // closes round 0
	l.AddUpload(7)
	l.AddTierUp(4)
	r.Finish()
	r.Finish()      // idempotent
	l.AddUpload(99) // billed after the close: the closed trace keeps its copy
	r.AddBatches(9) // likewise: no round is open to count it

	traces := r.Traces()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	r0 := traces[0]
	if r0.Algo != "TestAlgo" || r0.Round != 0 {
		t.Errorf("round 0 header = %q/%d", r0.Algo, r0.Round)
	}
	if r0.UploadBytes != 150 || r0.DownloadBytes != 70 {
		t.Errorf("round 0 bytes = %d/%d, want 150/70", r0.UploadBytes, r0.DownloadBytes)
	}
	if r0.Workers != 3 {
		t.Errorf("round 0 workers = %d, want 3", r0.Workers)
	}
	if r0.Batches != 5 {
		t.Errorf("round 0 batches = %d, want 5", r0.Batches)
	}
	if r0.WallNS <= 0 {
		t.Errorf("round 0 wall = %d, want > 0", r0.WallNS)
	}
	if r0.ClientTrainNS[1] <= 0 {
		t.Errorf("client 1 train ns = %d, want > 0", r0.ClientTrainNS[1])
	}
	if r0.PhaseNS[PhaseClientTrain] != r0.ClientTrainNS[1] {
		t.Errorf("client_train phase %d != client span %d", r0.PhaseNS[PhaseClientTrain], r0.ClientTrainNS[1])
	}
	if _, ok := r0.PhaseNS[PhaseEval]; !ok {
		t.Error("eval phase missing")
	}
	if traces[1].Batches != 0 {
		t.Errorf("round 1 batches = %d, want 0", traces[1].Batches)
	}
	if traces[1].UploadBytes != 7 || traces[1].TierUpBytes != 4 {
		t.Errorf("round 1 upload/tier up = %d/%d, want 7/4", traces[1].UploadBytes, traces[1].TierUpBytes)
	}
	if len(ended) != 2 {
		t.Errorf("OnRoundEnd fired %d times, want 2", len(ended))
	}
}

// TestRecorderConcurrent exercises the recorder the way ForEachClient
// workers, leaves and TCP accept goroutines do: spans and ledger bills from
// many goroutines while the round closes and the next one opens, which reads
// the ledger under the recorder's lock. Run with -race to verify the locking.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder("race")
	l := comm.NewLedger()
	r.Bind(l)
	startRound(l, r, 0)
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stop := r.ClientSpan(c)
			l.AddUpload(10)
			l.AddDownload(5)
			stop()
			r.Span(PhaseClientPublic)()
			r.AddBatches(1)
		}(c)
	}
	wg.Wait()
	// Round 1 bills while it closes (a late control envelope racing Finish):
	// whatever the close copies must be one consistent ledger row.
	startRound(l, r, 1)
	wg.Add(2)
	go func() { defer wg.Done(); l.AddControl(3) }()
	go func() { defer wg.Done(); r.Finish() }()
	wg.Wait()
	traces := r.Traces()
	tr := traces[0]
	if tr.UploadBytes != 320 || tr.DownloadBytes != 160 {
		t.Errorf("bytes = %d/%d, want 320/160", tr.UploadBytes, tr.DownloadBytes)
	}
	if c := traces[1].ControlBytes; c != 0 && c != 3 {
		t.Errorf("round 1 control = %d, want 0 or 3", c)
	}
	if tr.Batches != 32 {
		t.Errorf("batches = %d, want 32", tr.Batches)
	}
	if len(tr.ClientTrainNS) != 32 {
		t.Errorf("client spans = %d, want 32", len(tr.ClientTrainNS))
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	traces := []RoundTrace{
		{Algo: "A", Round: 0, WallNS: 100, UploadBytes: 10, DownloadBytes: 20, Batches: 3, Workers: 2,
			ClientTrainNS: map[int]int64{0: 40, 1: 60}, PhaseNS: map[string]int64{PhaseEval: 5}},
		{Algo: "A", Round: 1, WallNS: 90},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, traces); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	var back RoundTrace
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if back.UploadBytes != 10 || back.ClientTrainNS[1] != 60 {
		t.Errorf("round-trip mismatch: %+v", back)
	}
}

func TestWriteCSVStableColumns(t *testing.T) {
	traces := []RoundTrace{
		{Algo: "A", Round: 0, PhaseNS: map[string]int64{PhaseServerTrain: 9}},
		{Algo: "A", Round: 1, PhaseNS: map[string]int64{PhaseAggregate: 4}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, traces); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d csv rows, want 3", len(rows))
	}
	header := strings.Join(rows[0], ",")
	if !strings.Contains(header, "phase_aggregate_ns") || !strings.Contains(header, "phase_server_train_ns") {
		t.Errorf("header missing union phase columns: %s", header)
	}
	for _, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			t.Errorf("ragged csv row: %v", row)
		}
	}
}

func TestDumpFiles(t *testing.T) {
	dir := t.TempDir()
	r := NewRecorder("dump")
	l := comm.NewLedger()
	r.Bind(l)
	startRound(l, r, 0)
	l.AddUpload(1)
	jsonl, csvPath, err := r.DumpFiles(dir, "dump_seed1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jsonl, csvPath} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing output %s: %v", p, err)
		}
		if filepath.Dir(p) != dir {
			t.Errorf("output %s not under %s", p, dir)
		}
	}
	// DumpFiles closes the open round, so the file holds its ledger bytes.
	b, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"upload_bytes":1,`) {
		t.Errorf("trace file lacks the round's ledger upload: %s", b)
	}
}

func TestProgressLine(t *testing.T) {
	tr := RoundTrace{Algo: "FedPKD", Round: 3, WallNS: int64(1200 * time.Millisecond),
		UploadBytes: 2_500_000, DownloadBytes: 1_000_000, Batches: 42, Workers: 4,
		PhaseNS: map[string]int64{PhaseClientTrain: int64(900 * time.Millisecond)}}
	line := tr.ProgressLine()
	for _, want := range []string{"FedPKD", "round 3", "1.2s", "42 batches", "4 workers", "2.50MB"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q: %s", want, line)
		}
	}
}

// TestDebugServerServesVarsAndPprof: the debug endpoint serves pprof and
// expvar, and the one fedpkd_ var it publishes is the tensor layer's
// process-wide kernel counters. Everything a run measures lives in its trace.
func TestDebugServerServesVarsAndPprof(t *testing.T) {
	srv, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if path != "/debug/vars" {
			continue
		}
		var vars map[string]json.RawMessage
		if err := json.Unmarshal(body, &vars); err != nil {
			t.Fatalf("/debug/vars is not a JSON object: %v", err)
		}
		var ours []string
		for k := range vars {
			if strings.HasPrefix(k, "fedpkd_") {
				ours = append(ours, k)
			}
		}
		if len(ours) != 1 || ours[0] != "fedpkd_kernel_stats" {
			t.Errorf("/debug/vars publishes %v, want only fedpkd_kernel_stats", ours)
		}
	}
}

// TestGlobalCounters pins that a run's counts are its own: batches added to
// one recorder leave a second one, open on the same round at the same time,
// at zero.
func TestGlobalCounters(t *testing.T) {
	a, b := NewRecorder("a"), NewRecorder("b")
	a.RoundStarted(0)
	b.RoundStarted(0)
	a.AddBatches(3)
	a.Finish()
	b.Finish()
	if got := a.Traces()[0].Batches; got != 3 {
		t.Errorf("recorder a counted %d batches, want 3", got)
	}
	if got := b.Traces()[0].Batches; got != 0 {
		t.Errorf("recorder b counted %d batches, want 0: it saw a's", got)
	}
}

package comm

import (
	"sync"
	"testing"
)

func TestWireSizes(t *testing.T) {
	if got := LogitsBytes(5000, 10); got != 200000 {
		t.Errorf("LogitsBytes(5000,10) = %d, want 200000", got)
	}
	if got := ModelBytes(127754); got != 511016 {
		t.Errorf("ModelBytes = %d", got)
	}
	if got := SampleIndexBytes(100); got != 400 {
		t.Errorf("SampleIndexBytes(100) = %d, want 400", got)
	}
}

func TestLedgerAccumulates(t *testing.T) {
	l := NewLedger()
	l.StartRound(0)
	l.AddUpload(100)
	l.AddDownload(50)
	l.StartRound(1)
	l.AddUpload(200)

	rounds := l.Rounds()
	if len(rounds) != 2 {
		t.Fatalf("Rounds len = %d", len(rounds))
	}
	if rounds[0].Upload != 100 || rounds[0].Download != 50 || rounds[1].Upload != 200 {
		t.Errorf("rounds = %+v", rounds)
	}
	if l.TotalBytes() != 350 {
		t.Errorf("TotalBytes = %d, want 350", l.TotalBytes())
	}
	if l.TotalMB() != 350/MB {
		t.Errorf("TotalMB = %v", l.TotalMB())
	}
	if rounds[0].Total() != 150 || rounds[1].Total() != 200 {
		t.Errorf("round totals = %d, %d, want 150, 200", rounds[0].Total(), rounds[1].Total())
	}
}

// TestLedgerObserverMirrorsTraffic: the per-round rows are the only byte
// count a run keeps (round traces copy them), so each row must hold exactly
// its round's traffic, and Row must read the newest record of a round —
// after a Restore rewinds the run, too — without disturbing the rest.
func TestLedgerObserverMirrorsTraffic(t *testing.T) {
	l := NewLedger()
	if _, ok := l.Row(0); ok {
		t.Error("Row(0) on an empty ledger reported a row")
	}
	l.StartRound(0)
	l.AddUpload(100)
	l.AddDownload(40)
	l.StartRound(1)
	l.AddUpload(60)
	l.AddControl(17)
	l.AddUploadRaw(5, 20)
	l.AddDownloadRaw(3, 12)
	l.AddTierUp(9)
	l.AddTierDown(11)

	want := []RoundTraffic{
		{Round: 0, Upload: 100, Download: 40},
		{Round: 1, Upload: 65, Download: 3, Control: 17, RawUpload: 20, RawDownload: 12, TierUp: 9, TierDown: 11},
	}
	rows := l.Rounds()
	if len(rows) != len(want) {
		t.Fatalf("Rounds len = %d, want %d", len(rows), len(want))
	}
	var total int64
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
		if got, ok := l.Row(w.Round); !ok || got != w {
			t.Errorf("Row(%d) = %+v, %v, want %+v", w.Round, got, ok, w)
		}
		total += rows[i].Total()
	}
	if total != l.TotalBytes() {
		t.Errorf("row totals %d != ledger total %d", total, l.TotalBytes())
	}
	if _, ok := l.Row(2); ok {
		t.Error("Row(2) reported a round that never started")
	}

	// A resume rewinds to round 0's end and replays round 1: Row reads the
	// replayed round, not a stale copy.
	l.Restore(rows[:1])
	l.StartRound(1)
	l.AddUpload(7)
	if got, _ := l.Row(1); got != (RoundTraffic{Round: 1, Upload: 7}) {
		t.Errorf("Row(1) after the replay = %+v, want only the replayed upload", got)
	}
}

func TestLedgerBeforeStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddUpload before StartRound should panic")
		}
	}()
	NewLedger().AddUpload(1)
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger()
	l.StartRound(0)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.AddUpload(1)
			l.AddDownload(2)
		}()
	}
	wg.Wait()
	if l.TotalBytes() != 300 {
		t.Errorf("concurrent total = %d, want 300", l.TotalBytes())
	}
}

// TestLinkModel: the ledger prices traffic in decimal megabytes, as the
// paper's figures do, and neither the raw-equivalent nor the tier columns
// enter the total.
func TestLinkModel(t *testing.T) {
	l := NewLedger()
	l.StartRound(0)
	l.AddUploadRaw(500_000, 2_000_000)
	l.AddDownload(500_000)
	l.AddTierUp(300)
	l.AddTierDown(700)
	if got := l.TotalMB(); got != 1 {
		t.Errorf("TotalMB = %v, want 1", got)
	}
	r := l.Rounds()[0]
	if r.RawUpload != 2_000_000 || r.TierUp != 300 || r.TierDown != 700 {
		t.Errorf("side columns = %+v", r)
	}
}

// TestLinkModelBadRatePanics: tier traffic before StartRound panics like
// client traffic does, and the ledger stays usable after the panic.
func TestLinkModelBadRatePanics(t *testing.T) {
	l := NewLedger()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddTierUp before StartRound should panic")
			}
		}()
		l.AddTierUp(1)
	}()
	l.StartRound(0) // would deadlock if the panic had kept the lock
	l.AddTierUp(1)
	if l.Rounds()[0].TierUp != 1 {
		t.Error("tier bytes after the recovered panic were not recorded")
	}
}

func TestRoundTrafficTotal(t *testing.T) {
	r := RoundTraffic{Upload: 3, Download: 4}
	if r.Total() != 7 {
		t.Errorf("Total = %d", r.Total())
	}
}

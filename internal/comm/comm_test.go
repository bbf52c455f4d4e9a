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

// recordingObserver captures ledger notifications for assertions.
type recordingObserver struct {
	mu                      sync.Mutex
	rounds                  []int
	uploads, downs, control int64
}

func (o *recordingObserver) RoundStarted(round int) {
	o.mu.Lock()
	o.rounds = append(o.rounds, round)
	o.mu.Unlock()
}

func (o *recordingObserver) UploadedBytes(b int) {
	o.mu.Lock()
	o.uploads += int64(b)
	o.mu.Unlock()
}

func (o *recordingObserver) DownloadedBytes(b int) {
	o.mu.Lock()
	o.downs += int64(b)
	o.mu.Unlock()
}

func (o *recordingObserver) ControlBytes(b int) {
	o.mu.Lock()
	o.control += int64(b)
	o.mu.Unlock()
}

func TestLedgerObserverMirrorsTraffic(t *testing.T) {
	l := NewLedger()
	obs := &recordingObserver{}
	l.SetObserver(obs)
	l.StartRound(0)
	l.AddUpload(100)
	l.AddDownload(40)
	l.StartRound(1)
	l.AddUpload(60)
	l.AddControl(17)

	if want := []int{0, 1}; len(obs.rounds) != 2 || obs.rounds[0] != want[0] || obs.rounds[1] != want[1] {
		t.Errorf("observed rounds = %v, want %v", obs.rounds, want)
	}
	if obs.uploads != 160 || obs.downs != 40 || obs.control != 17 {
		t.Errorf("observed bytes = %d/%d/%d, want 160/40/17", obs.uploads, obs.downs, obs.control)
	}
	// Observer totals must match the ledger's own accounting.
	if obs.uploads+obs.downs+obs.control != l.TotalBytes() {
		t.Errorf("observer total %d != ledger total %d", obs.uploads+obs.downs+obs.control, l.TotalBytes())
	}

	// Detach: further traffic must not notify.
	l.SetObserver(nil)
	l.AddUpload(999)
	if obs.uploads != 160 {
		t.Errorf("detached observer still notified: %d", obs.uploads)
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

package engine

import (
	"testing"
)

func TestAvailabilityTracePureAndBounded(t *testing.T) {
	tr := &AvailabilityTrace{Seed: 11, Period: 8, MinDuty: 0.5, MaxDuty: 0.9}
	for c := 0; c < 10; c++ {
		// Online is pure and periodic: the same (c, t) always answers the
		// same, and t and t+Period agree.
		for ti := 0; ti < 2*tr.Period; ti++ {
			if tr.Online(c, ti) != tr.Online(c, ti) {
				t.Fatalf("Online(%d,%d) not pure", c, ti)
			}
			if tr.Online(c, ti) != tr.Online(c, ti+tr.Period) {
				t.Fatalf("Online(%d,%d) != Online(%d,%d): trace must be periodic", c, ti, c, ti+tr.Period)
			}
		}
		// Over one full period, a client is online for its duty window:
		// between MinDuty and MaxDuty of the period (rounded), never zero.
		online := 0
		for ti := 0; ti < tr.Period; ti++ {
			if tr.Online(c, ti) {
				online++
			}
		}
		lo := int(tr.MinDuty*float64(tr.Period) + 0.5)
		hi := int(tr.MaxDuty*float64(tr.Period) + 0.5)
		if online < lo || online > hi {
			t.Fatalf("client %d online %d/%d rounds, outside duty window [%d,%d]", c, online, tr.Period, lo, hi)
		}
	}
}

func TestAvailabilityTracePinnedDuty(t *testing.T) {
	// MinDuty == MaxDuty pins every client to the same window width; only
	// phases differ.
	tr := &AvailabilityTrace{Seed: 3, Period: 10, MinDuty: 0.7, MaxDuty: 0.7}
	want := 7
	for c := 0; c < 6; c++ {
		online := 0
		for ti := 0; ti < tr.Period; ti++ {
			if tr.Online(c, ti) {
				online++
			}
		}
		if online != want {
			t.Fatalf("client %d online %d rounds at pinned duty 0.7 of 10, want %d", c, online, want)
		}
	}
}

func TestAvailabilityTraceNilAlwaysOnline(t *testing.T) {
	var tr *AvailabilityTrace
	for c := 0; c < 4; c++ {
		for ti := 0; ti < 4; ti++ {
			if !tr.Online(c, ti) {
				t.Fatalf("nil trace must keep client %d online at round %d", c, ti)
			}
		}
	}
}

func TestAvailabilityTraceValidate(t *testing.T) {
	if err := (AvailabilityTrace{Period: -1}).Validate(); err == nil {
		t.Error("negative period accepted")
	}
	if err := (AvailabilityTrace{MinDuty: -0.2}).Validate(); err == nil {
		t.Error("negative MinDuty accepted")
	}
	if err := (AvailabilityTrace{MinDuty: 0.8, MaxDuty: 0.4}).Validate(); err == nil {
		t.Error("MaxDuty < MinDuty accepted")
	}
	if err := (AvailabilityTrace{MinDuty: 0.5, MaxDuty: 1.5}).Validate(); err == nil {
		t.Error("MaxDuty > 1 accepted")
	}
	// The zero trace is valid: every field defaults.
	if err := (AvailabilityTrace{}).Validate(); err != nil {
		t.Errorf("zero trace rejected: %v", err)
	}
}

// FuzzParseAvailability holds the availability-spec parser to its contract
// on arbitrary text: it never panics, every trace it accepts has a period
// of at least one round and duties in (0, 1], and the trace answers Online
// for any client and round.
func FuzzParseAvailability(f *testing.F) {
	for _, s := range []string{"period=24,min=0.5,max=0.9,seed=7", "period=6", "min=1,max=1", "period=0", "min=NaN", "max=nan", "period=-3", ",,seed=18446744073709551615", "min=0.9,max=0.5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tr, err := ParseAvailability(spec, 42)
		if err != nil || tr == nil {
			return
		}
		d := tr.WithDefaults()
		if d.Period < 1 || !(d.MinDuty > 0 && d.MinDuty <= d.MaxDuty && d.MaxDuty <= 1) {
			t.Fatalf("ParseAvailability(%q) accepted %+v", spec, d)
		}
		for c := 0; c < 4; c++ {
			tr.Online(c, c*d.Period+1)
		}
	})
}

func TestParseAvailability(t *testing.T) {
	tr, err := ParseAvailability("period=12,min=0.4,max=0.8,seed=7", 42)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Period != 12 || tr.MinDuty != 0.4 || tr.MaxDuty != 0.8 || tr.Seed != 7 {
		t.Fatalf("parsed trace = %+v", tr)
	}

	// An omitted seed takes the default (the run seed).
	tr, err = ParseAvailability("period=6", 42)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Seed != 42 || tr.Period != 6 {
		t.Fatalf("defaulted trace = %+v, want seed 42 period 6", tr)
	}

	// The empty spec is "no churn".
	if tr, err := ParseAvailability("", 42); err != nil || tr != nil {
		t.Fatalf("empty spec = %+v, %v; want nil, nil", tr, err)
	}

	for _, bad := range []string{
		"perod=12",        // unknown key
		"period=abc",      // unparsable value
		"period",          // not key=value
		"min=0.9,max=0.1", // fails validation
	} {
		if _, err := ParseAvailability(bad, 42); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestAvailabilityTraceBoundaryRounds pins the trace's behavior at the round
// boundaries the modular-window arithmetic stresses: round 0 is a valid
// query (no off-by-one at the start of a run), and the trace is exactly
// periodic — round t and round t+Period agree for every client, so a run
// crossing the phase wrap replays the first day verbatim.
func TestAvailabilityTraceBoundaryRounds(t *testing.T) {
	tr := &AvailabilityTrace{Seed: 9, Period: 8, MinDuty: 0.5, MaxDuty: 0.9}
	const clients = 64
	for c := 0; c < clients; c++ {
		// Round 0 must answer without panicking and deterministically.
		if tr.Online(c, 0) != tr.Online(c, 0) {
			t.Fatalf("client %d round 0 not deterministic", c)
		}
		for _, t0 := range []int{0, 1, 7} { // start, interior, last-of-period
			for k := 1; k <= 3; k++ {
				if tr.Online(c, t0) != tr.Online(c, t0+k*8) {
					t.Fatalf("client %d: round %d and round %d disagree across the phase wrap", c, t0, t0+k*8)
				}
			}
		}
		// Within one period the client is online exactly window rounds —
		// the wrap can't double-count the boundary round.
		online := 0
		for round := 0; round < 8; round++ {
			if tr.Online(c, round) {
				online++
			}
		}
		if online < 4 || online > 8 {
			t.Fatalf("client %d online %d/8 rounds, outside the duty band [0.5,0.9] window", c, online)
		}
	}
}

// TestAvailabilityTracePeriodOne pins the degenerate single-round period:
// the window clamps to at least one round, so every client is always online
// and round 0 equals every later round.
func TestAvailabilityTracePeriodOne(t *testing.T) {
	tr := &AvailabilityTrace{Seed: 3, Period: 1, MinDuty: 0.5, MaxDuty: 0.9}
	for c := 0; c < 16; c++ {
		for _, round := range []int{0, 1, 2, 100} {
			if !tr.Online(c, round) {
				t.Fatalf("client %d offline at round %d under period 1; the >=1 window clamp must keep everyone online", c, round)
			}
		}
	}
}

package faults

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"
	"time"

	"fedpkd/internal/stats"
	"fedpkd/internal/transport"
)

// pipeConn is a loopback transport.Conn: everything sent is received back.
type pipeConn struct {
	ch     chan *transport.Envelope
	closed bool
}

func newPipe() *pipeConn { return &pipeConn{ch: make(chan *transport.Envelope, 64)} }

func (p *pipeConn) Send(e *transport.Envelope) error { p.ch <- e; return nil }
func (p *pipeConn) Recv() (*transport.Envelope, error) {
	e, ok := <-p.ch
	if !ok {
		return nil, io.EOF
	}
	return e, nil
}
func (p *pipeConn) Close() error {
	if !p.closed {
		p.closed = true
		close(p.ch)
	}
	return nil
}

func env(kind transport.Kind, round int, payload []byte) *transport.Envelope {
	return &transport.Envelope{Kind: kind, From: 1, To: -1, Round: round, Payload: payload}
}

func TestZeroPlanIsPassThrough(t *testing.T) {
	pipe := newPipe()
	c := Wrap(pipe, nil, 0, nil, OSClock)
	if err := c.Send(env(transport.KindUpload, 0, []byte{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	e, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Payload) != 3 || e.Payload[0] != 1 {
		t.Errorf("payload altered: %v", e.Payload)
	}
	var p *Plan
	if p.Enabled() || p.Lossy() || p.CrashesAt(0, 0) {
		t.Error("nil plan must inject nothing")
	}
}

// sendPattern records which of n sequential upload sends survive to the
// inner conn.
func sendPattern(t *testing.T, plan *Plan, peer, n int) []bool {
	t.Helper()
	pipe := newPipe()
	c := Wrap(pipe, plan, peer, &Stats{}, OSClock)
	out := make([]bool, n)
	for r := 0; r < n; r++ {
		if err := c.Send(env(transport.KindUpload, r, []byte{9, 9})); err != nil && err != ErrTransient {
			t.Fatal(err)
		}
		select {
		case <-pipe.ch:
			out[r] = true
		default:
		}
	}
	return out
}

func TestDropIsDeterministicAndSeedSensitive(t *testing.T) {
	plan := &Plan{Seed: 7, DropProb: 0.4}
	a := sendPattern(t, plan, 2, 40)
	b := sendPattern(t, plan, 2, 40)
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("send %d diverged between identical runs", i)
		}
		if !a[i] {
			drops++
		}
	}
	if drops == 0 || drops == 40 {
		t.Fatalf("drop pattern degenerate: %d/40 dropped", drops)
	}
	other := sendPattern(t, &Plan{Seed: 8, DropProb: 0.4}, 2, 40)
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same == 40 {
		t.Error("different seeds produced identical fault patterns")
	}
}

func TestDuplicationAndDedupKeys(t *testing.T) {
	pipe := newPipe()
	st := &Stats{}
	c := Wrap(pipe, &Plan{Seed: 3, DupProb: 0.5}, 1, st, OSClock)
	total := 0
	for r := 0; r < 30; r++ {
		if err := c.Send(env(transport.KindUpload, r, []byte{1})); err != nil {
			t.Fatal(err)
		}
	}
	for {
		select {
		case <-pipe.ch:
			total++
			continue
		default:
		}
		break
	}
	sn := st.Snapshot()
	if sn.Dups == 0 {
		t.Fatal("no duplications at p=0.5 over 30 sends")
	}
	if total != 30+int(sn.Dups) {
		t.Errorf("inner saw %d envelopes, want %d", total, 30+sn.Dups)
	}
}

func TestCorruptionFlipsPayloadOnly(t *testing.T) {
	pipe := newPipe()
	st := &Stats{}
	c := Wrap(pipe, &Plan{Seed: 5, CorruptProb: 0.9}, 4, st, OSClock)
	orig := []byte{10, 20, 30, 40, 50, 60, 70, 80}
	corrupted := 0
	for r := 0; r < 20; r++ {
		payload := append([]byte(nil), orig...)
		if err := c.Send(env(transport.KindUpload, r, payload)); err != nil {
			t.Fatal(err)
		}
		got := <-pipe.ch
		if got.Kind != transport.KindUpload || got.From != 1 || got.Round != r {
			t.Fatalf("header altered: %+v", got)
		}
		diff := false
		for i := range orig {
			if got.Payload[i] != orig[i] {
				diff = true
			}
		}
		if diff {
			corrupted++
			// The caller's buffer must be untouched (corruption copies).
			for i := range payload {
				if payload[i] != orig[i] {
					t.Fatal("corruption mutated the sender's payload in place")
				}
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("no corruption at p=0.9 over 20 sends")
	}
	if got := st.Snapshot().Corrupts; int(got) != corrupted {
		t.Errorf("stats count %d corruptions, observed %d", got, corrupted)
	}
}

func TestTransientSendFailureRetriesFreshDraws(t *testing.T) {
	pipe := newPipe()
	c := Wrap(pipe, &Plan{Seed: 11, SendFailProb: 0.6}, 0, &Stats{}, OSClock)
	// Retrying the same (kind, round) must advance the attempt counter, so
	// a bounded number of retries eventually gets through.
	e := env(transport.KindUpload, 3, []byte{1})
	delivered := false
	for attempt := 0; attempt < 16; attempt++ {
		if err := c.Send(e); err == nil {
			delivered = true
			break
		} else if err != ErrTransient {
			t.Fatal(err)
		}
	}
	if !delivered {
		t.Fatal("16 attempts at p=0.6 never succeeded — attempt counter not advancing")
	}
}

func TestRecvDropConsumesMessage(t *testing.T) {
	pipe := newPipe()
	st := &Stats{}
	c := Wrap(pipe, &Plan{Seed: 2, DropProb: 0.5}, 3, st, OSClock)
	// Feed distinct rounds directly into the inner conn (bypassing send
	// faults) and count what survives the receive path.
	const n = 30
	for r := 0; r < n; r++ {
		pipe.ch <- env(transport.KindRoundEnd, r, nil)
	}
	pipe.Close()
	got := 0
	for {
		if _, err := c.Recv(); err != nil {
			break
		}
		got++
	}
	if got == 0 || got == n {
		t.Fatalf("recv drop degenerate: %d/%d survived", got, n)
	}
	if int(st.Snapshot().Drops)+got != n {
		t.Errorf("drops %d + delivered %d != sent %d", st.Snapshot().Drops, got, n)
	}
}

func TestCrashesAtDeterministicPerClientRound(t *testing.T) {
	p := &Plan{Seed: 9, CrashProb: 0.3}
	crashes := 0
	for c := 0; c < 5; c++ {
		for r := 0; r < 20; r++ {
			a, b := p.CrashesAt(c, r), p.CrashesAt(c, r)
			if a != b {
				t.Fatalf("CrashesAt(%d,%d) not stable", c, r)
			}
			if a {
				crashes++
			}
		}
	}
	if crashes == 0 || crashes == 100 {
		t.Fatalf("crash pattern degenerate: %d/100", crashes)
	}
}

func TestSetInnerKeepsStreams(t *testing.T) {
	plan := &Plan{Seed: 13, DropProb: 0.5}
	// Pattern with one conn throughout.
	ref := sendPattern(t, plan, 1, 20)

	// Same sends, swapping the inner conn halfway: decisions must not shift
	// because they key on message identity, not decorator state.
	p1, p2 := newPipe(), newPipe()
	c := Wrap(p1, plan, 1, nil, OSClock)
	got := make([]bool, 20)
	for r := 0; r < 20; r++ {
		if r == 10 {
			c.SetInner(p2)
		}
		if err := c.Send(env(transport.KindUpload, r, []byte{9, 9})); err != nil {
			t.Fatal(err)
		}
		pipe := p1
		if r >= 10 {
			pipe = p2
		}
		select {
		case <-pipe.ch:
			got[r] = true
		default:
		}
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("send %d decision changed after SetInner", i)
		}
	}
}

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{}.WithDefaults()
	rng := stats.NewRNG(1)
	prev := time.Duration(0)
	for attempt := 1; attempt < b.Attempts; attempt++ {
		d := b.Delay(attempt, rng)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", attempt, d)
		}
		lo := time.Duration(float64(b.Max) * (1 + b.Jitter))
		if d > lo {
			t.Fatalf("attempt %d: delay %v above jittered cap", attempt, d)
		}
		_ = prev
		prev = d
	}
	// Deterministic given the same stream.
	r1, r2 := stats.NewRNG(42), stats.NewRNG(42)
	for attempt := 1; attempt <= 6; attempt++ {
		if b.Delay(attempt, r1) != b.Delay(attempt, r2) {
			t.Fatal("backoff jitter not deterministic under a fixed stream")
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("drop=0.1, crash=0.2,dup=0.05,corrupt=0.01,delay=0.3,sendfail=0.1,maxdelay=5ms", 77)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 77 || p.DropProb != 0.1 || p.CrashProb != 0.2 || p.DupProb != 0.05 ||
		p.CorruptProb != 0.01 || p.DelayProb != 0.3 || p.SendFailProb != 0.1 || p.MaxDelay != 5*time.Millisecond {
		t.Errorf("parsed plan %+v", p)
	}
	if !p.Lossy() {
		t.Error("plan with drop should be lossy")
	}
	if got, _ := ParsePlan("", 1); got != nil {
		t.Error("empty spec should return nil plan")
	}
	for _, bad := range []string{"drop", "drop=x", "nope=0.1", "drop=1.5", "maxdelay=zzz"} {
		if _, err := ParsePlan(bad, 1); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
	if got := p.String(); got == "none" || got == "" {
		t.Errorf("String() = %q", got)
	}
	var nilPlan *Plan
	if nilPlan.String() != "none" {
		t.Error("nil plan String should be none")
	}
}

// FuzzParsePlan holds the chaos-spec parser to its contract on arbitrary
// text: it never panics, and every plan it accepts is valid and re-parses
// from its String to an equal plan.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"drop=0.1, crash=0.2,dup=0.05,corrupt=0.01,delay=0.3,sendfail=0.1,maxdelay=5ms",
		"tierdrop=0.1,tierdelay=0.2,tierdup=0.05,tiercorrupt=0.01,tiersendfail=0.1,leafcrash=0.3",
		"DROP=1e-3", "drop=0", "maxdelay=1h2m3.5s", "none", "drop=NaN", "drop=-0", "delay=0.5,maxdelay=-1ms", "drop=0.1,,crash=0.2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec, 9)
		if err != nil || p == nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan(%q) accepted an invalid plan: %v", spec, err)
		}
		back, err := ParsePlan(p.String(), 9)
		if err != nil || back == nil {
			t.Fatalf("ParsePlan(%q).String() = %q does not re-parse: %v", spec, p.String(), err)
		}
		if *back != *p {
			t.Fatalf("ParsePlan(%q) = %+v, but its String %q re-parses to %+v", spec, *p, p.String(), *back)
		}
	})
}

// TestBackoffDelayEdgeCases pins the Delay contract at the boundaries of the
// attempt range: a below-range attempt clamps to the first retry instead of
// shifting by a negative count, and huge attempts saturate at Max rather
// than overflowing into a negative or microscopic duration.
func TestBackoffDelayEdgeCases(t *testing.T) {
	b := Backoff{}.WithDefaults()
	cases := []struct {
		name    string
		attempt int
		want    time.Duration // exact expected delay with jitter disabled
	}{
		{"attempt-0-clamps-to-first", 0, b.Base},
		{"negative-attempt-clamps", -3, b.Base},
		{"first-retry", 1, b.Base},
		{"second-retry-doubles", 2, 2 * b.Base},
		{"past-cap-saturates", 10, b.Max},
		{"shift-width-62", 63, b.Max}, // Base<<62 overflows int64
		{"shift-width-80", 81, b.Max}, // shift count past the word size
		{"huge-attempt", 1 << 20, b.Max},
	}
	noJitter := Backoff{Attempts: b.Attempts, Base: b.Base, Max: b.Max, Jitter: -1}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := noJitter.Delay(tc.attempt, nil); got != tc.want {
				t.Errorf("Delay(%d) = %v, want %v", tc.attempt, got, tc.want)
			}
		})
	}
}

// TestBackoffJitterWithinBounds checks every jittered delay lands inside
// d*[1-J, 1+J] around its deterministic base value.
func TestBackoffJitterWithinBounds(t *testing.T) {
	b := Backoff{}.WithDefaults()
	noJitter := Backoff{Attempts: b.Attempts, Base: b.Base, Max: b.Max, Jitter: -1}
	rng := stats.NewRNG(7)
	for attempt := 0; attempt <= 12; attempt++ {
		base := noJitter.Delay(attempt, nil)
		d := b.Delay(attempt, rng)
		lo := time.Duration(float64(base) * (1 - b.Jitter))
		hi := time.Duration(float64(base) * (1 + b.Jitter))
		if d < lo || d > hi {
			t.Errorf("attempt %d: delay %v outside jitter window [%v, %v]", attempt, d, lo, hi)
		}
	}
}

// TestParsePlanRejectsMalformedSpecs is the table-driven negative suite for
// the CLI chaos grammar: every malformed spec must fail with the named
// error, never a zero-value plan.
func TestParsePlanRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"bare-key", "drop", `faults: bad chaos term "drop" (want key=prob)`},
		{"empty-term", "drop=0.1,,crash=0.2", `faults: bad chaos term "" (want key=prob)`},
		{"unknown-key", "nope=0.1", `faults: unknown chaos key "nope" (have corrupt, crash, delay, drop, dup, leafcrash, maxdelay, sendfail, tiercorrupt, tierdelay, tierdrop, tierdup, tiersendfail)`},
		{"non-numeric-prob", "drop=x", `faults: bad probability "x" for drop`},
		{"prob-at-one", "crash=1", `faults: CrashProb must be in [0,1), got 1`},
		{"prob-above-one", "drop=1.5", `faults: DropProb must be in [0,1), got 1.5`},
		{"negative-prob", "dup=-0.1", `faults: DupProb must be in [0,1), got -0.1`},
		{"bad-maxdelay", "maxdelay=zzz", `faults: bad maxdelay "zzz"`},
		{"negative-maxdelay", "drop=0.1,maxdelay=-5ms", `faults: MaxDelay must be >= 0, got -5ms`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p, err := ParsePlan(tc.spec, 1)
			if err == nil {
				t.Fatalf("ParsePlan(%q) = %+v, want error", tc.spec, p)
			}
			if !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Errorf("ParsePlan(%q) error = %q, want prefix %q", tc.spec, err, tc.wantErr)
			}
		})
	}
}

// ---- Tier-link fault family ----

// TestTierDrawsIndependentOfClientPlane pins the salt-family separation:
// adding tier probabilities to a plan must not shift one client-plane draw,
// and adding client probabilities must not shift one tier draw — the two
// planes consume disjoint decision streams.
func TestTierDrawsIndependentOfClientPlane(t *testing.T) {
	clientOnly := &Plan{Seed: 7, DropProb: 0.4}
	both := &Plan{Seed: 7, DropProb: 0.4,
		TierDropProb: 0.9, TierDupProb: 0.9, TierCorruptProb: 0.9, TierSendFailProb: 0.9, LeafCrashProb: 0.9}
	a := sendPattern(t, clientOnly, 2, 40)
	b := sendPattern(t, both, 2, 40)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("client-plane send %d shifted when tier probabilities were added", i)
		}
	}

	tierPattern := func(plan *Plan) []bool {
		pipe := newPipe()
		c := WrapTier(pipe, plan, 1, &Stats{}, OSClock)
		out := make([]bool, 40)
		for r := 0; r < 40; r++ {
			if err := c.Send(env(transport.KindShardDigest, r, []byte{9, 9})); err != nil && err != ErrTransient {
				t.Fatal(err)
			}
			select {
			case <-pipe.ch:
				out[r] = true
			default:
			}
		}
		return out
	}
	tierOnly := tierPattern(&Plan{Seed: 7, TierDropProb: 0.4})
	tierBoth := tierPattern(&Plan{Seed: 7, TierDropProb: 0.4,
		DropProb: 0.9, DupProb: 0.9, CorruptProb: 0.9, SendFailProb: 0.9, CrashProb: 0.9})
	for i := range tierOnly {
		if tierOnly[i] != tierBoth[i] {
			t.Fatalf("tier send %d shifted when client probabilities were added", i)
		}
	}
}

// TestWrapTierFaultsDigestSendsOnly: a tier decorator injects only into
// outbound shard digests — every other kind, and the whole receive path, is
// infrastructure and passes through untouched even under a saturated plan.
func TestWrapTierFaultsDigestSendsOnly(t *testing.T) {
	plan := &Plan{Seed: 5,
		TierDropProb: 0.9, TierDupProb: 0.9, TierCorruptProb: 0.9, TierDelayProb: 0.9,
		DropProb: 0.9, CorruptProb: 0.9}
	pipe := newPipe()
	st := &Stats{}
	c := WrapTier(pipe, plan, 0, st, OSClock)
	orig := []byte{10, 20, 30, 40}
	for r := 0; r < 20; r++ {
		for _, kind := range []transport.Kind{transport.KindUpload, transport.KindShardAssign, transport.KindShardEnd, transport.KindRoundStart} {
			if err := c.Send(env(kind, r, append([]byte(nil), orig...))); err != nil {
				t.Fatal(err)
			}
			got := <-pipe.ch
			if got.Kind != kind || len(got.Payload) != len(orig) || got.Payload[0] != orig[0] || got.Payload[3] != orig[3] {
				t.Fatalf("non-digest send altered: %+v", got)
			}
		}
	}
	if st.Snapshot().Total() != 0 {
		t.Fatalf("non-digest sends drew faults: %+v", st.Snapshot())
	}

	// The receive path passes through even for digests.
	pipe.ch <- env(transport.KindShardDigest, 3, append([]byte(nil), orig...))
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 3 || got.Payload[0] != orig[0] {
		t.Fatalf("tier recv altered the envelope: %+v", got)
	}

	// Digest sends do draw from the tier family.
	fired := false
	for r := 0; r < 20 && !fired; r++ {
		if err := c.Send(env(transport.KindShardDigest, r, append([]byte(nil), orig...))); err != nil && err != ErrTransient {
			t.Fatal(err)
		}
		sn := st.Snapshot()
		fired = sn.TierDrops+sn.TierDups+sn.TierCorrupts+sn.TierDelays > 0
	}
	if !fired {
		t.Fatal("no tier faults fired on digest sends at p=0.9")
	}
	if sn := st.Snapshot(); sn.Drops+sn.Dups+sn.Corrupts+sn.Delays+sn.SendFails > 0 {
		t.Fatalf("tier decorator bumped client-plane counters: %+v", sn)
	}
}

// TestLeafCrashesAtDeterministicAndDistinct mirrors the client crash
// schedule's contract on the tier salt: stable per (leaf, round), not
// degenerate, and drawn from a different stream than CrashesAt so the two
// schedules do not mirror each other.
func TestLeafCrashesAtDeterministicAndDistinct(t *testing.T) {
	p := &Plan{Seed: 9, CrashProb: 0.3, LeafCrashProb: 0.3}
	crashes, mirrored := 0, 0
	for l := 0; l < 5; l++ {
		for r := 0; r < 20; r++ {
			a, b := p.LeafCrashesAt(l, r), p.LeafCrashesAt(l, r)
			if a != b {
				t.Fatalf("LeafCrashesAt(%d,%d) not stable", l, r)
			}
			if a {
				crashes++
			}
			if a == p.CrashesAt(l, r) {
				mirrored++
			}
		}
	}
	if crashes == 0 || crashes == 100 {
		t.Fatalf("leaf-crash pattern degenerate: %d/100", crashes)
	}
	if mirrored == 100 {
		t.Fatal("leaf-crash schedule mirrors the client crash schedule at equal probability")
	}
	var nilPlan *Plan
	if nilPlan.LeafCrashesAt(0, 0) || nilPlan.TierEnabled() || nilPlan.TierLossy() {
		t.Error("nil plan must schedule no tier faults")
	}
}

// TestParsePlanTierKeys: the CLI grammar's tier half round-trips through
// ParsePlan and String, and the tier fields carry the same [0,1) validation
// as the client plane.
func TestParsePlanTierKeys(t *testing.T) {
	p, err := ParsePlan("tierdrop=0.1,tierdelay=0.2,tierdup=0.05,tiercorrupt=0.01,tiersendfail=0.15,leafcrash=0.3", 77)
	if err != nil {
		t.Fatal(err)
	}
	if p.TierDropProb != 0.1 || p.TierDelayProb != 0.2 || p.TierDupProb != 0.05 ||
		p.TierCorruptProb != 0.01 || p.TierSendFailProb != 0.15 || p.LeafCrashProb != 0.3 {
		t.Errorf("parsed plan %+v", p)
	}
	if !p.TierEnabled() || !p.TierLossy() {
		t.Error("plan with tier drop must be tier-enabled and tier-lossy")
	}
	if p.Lossy() {
		t.Error("tier-only plan must not be client-plane lossy")
	}
	s := p.String()
	for _, key := range []string{"tierdrop=0.1", "tierdelay=0.2", "tierdup=0.05", "tiercorrupt=0.01", "tiersendfail=0.15", "leafcrash=0.3"} {
		if !strings.Contains(s, key) {
			t.Errorf("String() = %q, missing %q", s, key)
		}
	}
	for _, bad := range []string{"tierdrop=1.5", "leafcrash=1", "tiercorrupt=-0.1"} {
		if _, err := ParsePlan(bad, 1); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
	if (&Plan{TierDelayProb: 0.5}).TierLossy() {
		t.Error("tier delay alone must not be lossy")
	}
}

// TestSendFaultFingerprint pins every Send decision of both planes: for a
// fixed seed it hashes, over 1000 (peer, round, attempt) triples per plane,
// the returned error, the envelopes (and corrupted bytes) that reached the
// inner conn, every Stats counter and the delay magnitude. The constants were
// computed at the commit before the two planes' Send paths were merged, so a
// match proves the merge moved no draw.
func TestSendFaultFingerprint(t *testing.T) {
	plan := &Plan{Seed: 42, MaxDelay: time.Nanosecond,
		SendFailProb: 0.2, DelayProb: 0.3, DropProb: 0.2, CorruptProb: 0.4, DupProb: 0.3,
		TierSendFailProb: 0.25, TierDelayProb: 0.2, TierDropProb: 0.3, TierCorruptProb: 0.3, TierDupProb: 0.4}
	// Delay magnitudes are read from a twin plan with a wide bound, without
	// sleeping them out.
	wide := *plan
	wide.MaxDelay = time.Second
	payload := make([]byte, 600)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, side := range []struct {
		name string
		wrap func(transport.Conn, *Plan, int, *Stats, Clock) *Conn
		kind transport.Kind
		want uint64
	}{
		{"client", Wrap, transport.KindUpload, 0x10e4a197927fab5},
		{"tier", WrapTier, transport.KindShardDigest, 0x4a09481e80466024},
	} {
		t.Run(side.name, func(t *testing.T) {
			h := fnv.New64a()
			for peer := 0; peer < 10; peer++ {
				inner, st := newPipe(), &Stats{}
				c := side.wrap(inner, plan, peer, st, OSClock)
				mag := side.wrap(nil, &wide, peer, nil, OSClock)
				for round := 0; round < 20; round++ {
					for attempt := 0; attempt < 5; attempt++ {
						e := &transport.Envelope{Kind: side.kind, From: peer, To: -1, Round: round, Payload: payload}
						err := c.Send(e)
						fmt.Fprintf(h, "%d/%d/%d err=%v n=%d stats=%+v", peer, round, attempt, err, len(inner.ch), st.Snapshot())
						for len(inner.ch) > 0 {
							h.Write((<-inner.ch).Payload)
						}
						fmt.Fprintf(h, " mag=%d;", mag.delayFor(wide.share(mag.plane).delayMag, e, attempt))
					}
				}
			}
			if got := h.Sum64(); got != side.want {
				t.Errorf("%s plane fingerprint = %#x, want %#x", side.name, got, side.want)
			}
		})
	}
}

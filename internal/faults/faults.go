// Package faults is the deterministic failure-injection layer of the
// distributed runtime. A Plan assigns per-kind probabilities to the classic
// network and process faults — message drop, delivery delay, duplication,
// payload corruption, transient send failure, and whole-round client crash —
// and Wrap decorates any transport.Conn so those faults fire on the live
// wire. Every decision is a pure function of (Seed, peer, direction, message
// kind, round, attempt): no decorator state feeds the draws, so outcomes are
// independent of goroutine scheduling and a fixed seed reproduces the exact
// same fault pattern run after run. That determinism is what makes chaos
// tests byte-stable: internal/distrib runs under a Plan produce identical
// fl.History values across runs (see DESIGN.md §9).
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fedpkd/internal/stats"
	"fedpkd/internal/transport"
)

// ErrTransient is the injected retryable send failure. Callers treat it like
// any other transient transport error: retry with backoff (see Backoff), and
// give the upload up for the round when attempts are exhausted.
var ErrTransient = errors.New("faults: injected transient send failure")

// DefaultMaxDelay bounds an injected delivery delay when Plan.MaxDelay is
// zero. It is deliberately tiny relative to any sane straggler timeout so
// delays perturb scheduling without changing round outcomes.
const DefaultMaxDelay = 2 * time.Millisecond

// Plan is a seeded chaos schedule. All probabilities are in [0, 1); a zero
// Plan injects nothing. Drop, delay, duplication, corruption, and transient
// send failures are injected by the Conn decorator; CrashProb is drawn per
// (client, round) via CrashesAt and executed by the protocol driver
// (internal/distrib), which skips the client's round and re-establishes its
// connection — the restart half of crash/restart.
type Plan struct {
	// Seed drives every fault draw. Two runs with the same Seed (and the
	// same protocol traffic) inject the same faults at the same points.
	Seed uint64
	// DropProb is the probability a message is silently lost in transit
	// (applied on both send and receive paths of a wrapped conn).
	DropProb float64
	// DelayProb is the probability a message's delivery is delayed by a
	// deterministic duration in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected delays; zero means DefaultMaxDelay. Keep it
	// far below the straggler timeout or delays become effective drops.
	MaxDelay time.Duration
	// DupProb is the probability a sent message is transmitted twice. The
	// server's round-epoch dedup discards the replica.
	DupProb float64
	// CorruptProb is the probability a sent message's payload bytes are
	// flipped. Receivers reject it in decode/validate and treat the sender
	// as failed for the round.
	CorruptProb float64
	// SendFailProb is the probability a Send returns ErrTransient without
	// transmitting — the retry/backoff exerciser.
	SendFailProb float64
	// CrashProb is the per-(client, round) probability the client crashes
	// for the whole round: it trains nothing, sends nothing, and rejoins at
	// the next round start.
	CrashProb float64

	// Tier-link faults target the aggregator tree's leaf→root backhaul.
	// They are injected by a WrapTier decorator on each leaf's upward conn
	// and fire only on shard digests (transport.KindShardDigest):
	// assignments and round closes remain infrastructure, so a leaf always
	// learns its cohort and always receives a close — the deadlock-freedom
	// invariants of leaf.go survive any tier plan. Every tier draw uses its
	// own salt family, so adding tier chaos never shifts a client-plane
	// fault pattern (same-seed client runs stay byte-identical).
	TierDropProb    float64
	TierDelayProb   float64
	TierDupProb     float64
	TierCorruptProb float64
	// TierSendFailProb makes a leaf's digest Send return ErrTransient —
	// the exerciser for the leaf's seeded-backoff digest retry.
	TierSendFailProb float64
	// LeafCrashProb is the per-(leaf, round) probability a leaf aggregator
	// crashes for the whole round: it fans nothing, collects nothing, sends
	// no digest, and restarts with a drained inbox at the next round. Drawn
	// via LeafCrashesAt and executed by the protocol driver.
	LeafCrashProb float64
}

// plane names the two fault families: the client plane and the aggregator
// tree's tier links.
type plane int

const (
	clientPlane plane = iota
	tierPlane
	numPlanes
)

// fault indexes a plane's fault kinds: the five decisions a wrapped Send
// takes, in the order it takes them, then the whole-round crash.
type fault int

const (
	failFault fault = iota
	delayFault
	dropFault
	corruptFault
	dupFault
	crashFault
	numFaults
)

// planeFaults is one plane's share of a Plan: each fault kind's probability
// and the salt its decision draws from, plus the salts of Send's two
// follow-up draws (delay magnitude, corruption positions).
type planeFaults struct {
	prob                 [numFaults]float64
	salt                 [numFaults]uint64
	delayMag, corruptPos uint64
}

// share returns one plane's share of the plan. A nil plan has the zero share,
// which injects nothing.
func (p *Plan) share(pl plane) planeFaults {
	switch {
	case p == nil:
		return planeFaults{}
	case pl == tierPlane:
		return planeFaults{
			prob:     [numFaults]float64{p.TierSendFailProb, p.TierDelayProb, p.TierDropProb, p.TierCorruptProb, p.TierDupProb, p.LeafCrashProb},
			salt:     [numFaults]uint64{saltTierSendFail, saltTierSendDelay, saltTierSendDrop, saltTierSendCorrupt, saltTierSendDup, saltLeafCrash},
			delayMag: saltTierDelayMag, corruptPos: saltTierCorruptPos,
		}
	}
	return planeFaults{
		prob:     [numFaults]float64{p.SendFailProb, p.DelayProb, p.DropProb, p.CorruptProb, p.DupProb, p.CrashProb},
		salt:     [numFaults]uint64{saltSendFail, saltSendDelay, saltSendDrop, saltSendCorrupt, saltSendDup, saltCrash},
		delayMag: saltDelayMag, corruptPos: saltCorruptPos,
	}
}

// enabled reports whether any of the plane's fault kinds can fire.
func (v planeFaults) enabled() bool { return v.prob != [numFaults]float64{} }

// lossy reports whether the plane can make a message or a whole child
// disappear — the fault kinds that need a finite deadline on the collecting
// side to avoid deadlock.
func (v planeFaults) lossy() bool {
	return v.prob[dropFault] > 0 || v.prob[corruptFault] > 0 || v.prob[failFault] > 0 || v.prob[crashFault] > 0
}

// Enabled reports whether any fault kind can fire, on either plane.
func (p *Plan) Enabled() bool { return p.share(clientPlane).enabled() || p.TierEnabled() }

// Lossy reports whether the plan can make a client's message or a whole
// client disappear; such plans require a positive ClientTimeout.
func (p *Plan) Lossy() bool { return p.share(clientPlane).lossy() }

// TierEnabled reports whether any tier-link or leaf fault can fire.
func (p *Plan) TierEnabled() bool { return p.share(tierPlane).enabled() }

// TierLossy reports whether the plan can make a shard digest or a whole leaf
// disappear; such plans require a positive LeafTimeout on the root.
func (p *Plan) TierLossy() bool { return p.share(tierPlane).lossy() }

// Validate rejects out-of-range probabilities.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DropProb", p.DropProb}, {"DelayProb", p.DelayProb}, {"DupProb", p.DupProb},
		{"CorruptProb", p.CorruptProb}, {"SendFailProb", p.SendFailProb}, {"CrashProb", p.CrashProb},
		{"TierDropProb", p.TierDropProb}, {"TierDelayProb", p.TierDelayProb}, {"TierDupProb", p.TierDupProb},
		{"TierCorruptProb", p.TierCorruptProb}, {"TierSendFailProb", p.TierSendFailProb}, {"LeafCrashProb", p.LeafCrashProb},
	} {
		if f.v < 0 || f.v >= 1 {
			return fmt.Errorf("faults: %s must be in [0,1), got %v", f.name, f.v)
		}
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("faults: MaxDelay must be >= 0, got %v", p.MaxDelay)
	}
	return nil
}

// maxDelay returns the effective delay bound.
func (p *Plan) maxDelay() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return DefaultMaxDelay
}

// Fault-kind salts: each kind draws from its own stream so enabling one
// fault never shifts another kind's pattern.
const (
	saltSendDrop uint64 = iota + 1
	saltSendDup
	saltSendCorrupt
	saltSendFail
	saltSendDelay
	saltRecvDrop
	saltRecvDelay
	saltCrash
	saltDelayMag
	saltCorruptPos
	// Tier-role salts: the aggregator tree's leaf↔root links draw from
	// streams disjoint from every client-plane salt, so enabling tier chaos
	// leaves client fault patterns byte-identical.
	saltTierSendDrop
	saltTierSendDup
	saltTierSendCorrupt
	saltTierSendFail
	saltTierSendDelay
	saltLeafCrash
	saltTierDelayMag
	saltTierCorruptPos
)

// mix folds the draw coordinates into one stream label (splitmix64-style
// finalization, applied per field so permuted inputs never collide).
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	return h
}

// roll returns the deterministic uniform draw for one fault decision.
func (p *Plan) roll(salt uint64, peer int, kind transport.Kind, round, attempt int) float64 {
	label := mix(salt, uint64(peer)+1, uint64(kind), uint64(int64(round))+2, uint64(attempt)+3)
	return stats.Split(p.Seed, label).Float64()
}

// crashesAt draws a plane's whole-round crash decision for one child.
func (p *Plan) crashesAt(pl plane, child, round int) bool {
	v := p.share(pl)
	return v.prob[crashFault] > 0 && p.roll(v.salt[crashFault], child, 0, round, 0) < v.prob[crashFault]
}

// CrashesAt reports whether the plan crashes the given client for the given
// round. Pure: safe to call from any goroutine, any number of times.
func (p *Plan) CrashesAt(client, round int) bool { return p.crashesAt(clientPlane, client, round) }

// LeafCrashesAt reports whether the plan crashes the given leaf aggregator
// for the given round. Pure, like CrashesAt: the root uses it as a
// deterministic failure detector (crashed shards are never awaited), the leaf
// to execute the crash, and clients of the crashed shard to skip a round
// whose RoundStart can never arrive.
func (p *Plan) LeafCrashesAt(leaf, round int) bool { return p.crashesAt(tierPlane, leaf, round) }

// Stats counts injected faults by plane and kind (receive-path drops and
// delays count with the client plane's), shared by every Conn wrapped against
// it. All methods are safe for concurrent use and nil-receiver-safe.
type Stats struct {
	mu sync.Mutex
	n  [numPlanes][numFaults]int64
}

func (s *Stats) count(pl plane, f fault) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.n[pl][f]++
	s.mu.Unlock()
}

// CountCrash records one injected client-round crash (driven by the
// protocol layer, which owns crash execution).
func (s *Stats) CountCrash() { s.count(clientPlane, crashFault) }

// CountLeafCrash records one injected leaf-round crash (driven by the
// protocol layer, which owns crash execution).
func (s *Stats) CountLeafCrash() { s.count(tierPlane, crashFault) }

// Snapshot is a point-in-time copy of the fault counters.
type Snapshot struct {
	Drops, Delays, Dups, Corrupts, SendFails, Crashes                         int64
	TierDrops, TierDelays, TierDups, TierCorrupts, TierSendFails, LeafCrashes int64
}

// Total returns the number of injected faults of every kind, both planes.
func (sn Snapshot) Total() int64 {
	return sn.Drops + sn.Delays + sn.Dups + sn.Corrupts + sn.SendFails + sn.Crashes +
		sn.TierDrops + sn.TierDelays + sn.TierDups + sn.TierCorrupts + sn.TierSendFails + sn.LeafCrashes
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, t := s.n[clientPlane], s.n[tierPlane]
	return Snapshot{
		Drops: c[dropFault], Delays: c[delayFault], Dups: c[dupFault],
		Corrupts: c[corruptFault], SendFails: c[failFault], Crashes: c[crashFault],
		TierDrops: t[dropFault], TierDelays: t[delayFault], TierDups: t[dupFault],
		TierCorrupts: t[corruptFault], TierSendFails: t[failFault], LeafCrashes: t[crashFault],
	}
}

// Conn is the chaos decorator around a transport.Conn. Sends and receives
// draw per-kind fault decisions keyed on the message identity; the inner
// conn is swappable (SetInner) so a reconnected client keeps one decorator —
// and therefore one deterministic fault pattern — across restarts.
type Conn struct {
	plan  *Plan
	peer  int
	stats *Stats
	// plane selects the share of the plan this decorator injects. A tierPlane
	// (WrapTier) decorator fires only on shard digests and only on the send
	// path (the leaf owns its upward link; the root's server conn stays
	// unwrapped).
	plane plane

	mu    sync.Mutex
	inner transport.Conn
	// attempts counts sends per (kind, round) so retried uploads draw fresh
	// decisions. Entries from finished rounds are pruned as rounds advance.
	attempts map[attemptKey]int
	// recvSeen counts receives per (kind, round) so a replayed delivery
	// draws its own decision.
	recvSeen map[attemptKey]int
}

type attemptKey struct {
	kind  transport.Kind
	round int
}

var _ transport.Conn = (*Conn)(nil)

// Wrap decorates conn with the plan's send/receive faults for the given
// peer id. A nil or disabled plan returns a pass-through decorator (still
// valid, never injects). stats may be nil.
func Wrap(conn transport.Conn, plan *Plan, peer int, stats *Stats) *Conn {
	return &Conn{
		plan:     plan,
		peer:     peer,
		stats:    stats,
		inner:    conn,
		attempts: make(map[attemptKey]int),
		recvSeen: make(map[attemptKey]int),
	}
}

// WrapTier decorates a leaf aggregator's upward conn with the plan's
// tier-link faults, keyed by shard id. Faults fire only on shard digests and
// only on the send path; every other kind — and every receive — passes
// through untouched, so assignments and round closes stay infrastructure.
func WrapTier(conn transport.Conn, plan *Plan, shard int, stats *Stats) *Conn {
	c := Wrap(conn, plan, shard, stats)
	c.plane = tierPlane
	return c
}

// SetInner swaps the underlying conn (reconnect-and-rejoin) without
// resetting the fault streams.
func (c *Conn) SetInner(conn transport.Conn) {
	c.mu.Lock()
	c.inner = conn
	c.mu.Unlock()
}

// Inner returns the current underlying conn.
func (c *Conn) Inner() transport.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner
}

// nextAttempt returns the ordinal of this send for its (kind, round) and
// prunes stale rounds so the map stays bounded by the live round window.
func (c *Conn) nextAttempt(e *transport.Envelope) (int, transport.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := attemptKey{e.Kind, e.Round}
	a := c.attempts[k]
	c.attempts[k] = a + 1
	for old := range c.attempts {
		if old.round < e.Round-1 {
			delete(c.attempts, old)
		}
	}
	return a, c.inner
}

func (c *Conn) nextRecv(e *transport.Envelope) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := attemptKey{e.Kind, e.Round}
	a := c.recvSeen[k]
	c.recvSeen[k] = a + 1
	for old := range c.recvSeen {
		if old.round < e.Round-1 {
			delete(c.recvSeen, old)
		}
	}
	return a
}

// Send applies, in order: transient failure, delivery delay, drop,
// corruption, duplication. Exactly one decision per kind per (message,
// attempt), each from its own stream of the decorator's plane. A tier
// decorator faults shard digests only: everything else a leaf sends upward is
// infrastructure and passes through without burning an attempt counter.
func (c *Conn) Send(e *transport.Envelope) error {
	p, v := c.plan, c.plan.share(c.plane)
	if !v.enabled() || (c.plane == tierPlane && e.Kind != transport.KindShardDigest) {
		return c.Inner().Send(e)
	}
	attempt, inner := c.nextAttempt(e)
	hit := func(f fault) bool {
		if v.prob[f] <= 0 || p.roll(v.salt[f], c.peer, e.Kind, e.Round, attempt) >= v.prob[f] {
			return false
		}
		c.stats.count(c.plane, f)
		return true
	}
	if hit(failFault) {
		return ErrTransient
	}
	if hit(delayFault) {
		time.Sleep(c.delayFor(v.delayMag, e, attempt))
	}
	if hit(dropFault) {
		return nil // lost in transit: the sender believes it went out
	}
	out := e
	if len(e.Payload) > 0 && hit(corruptFault) {
		out = corruptEnvelope(p, v.corruptPos, c.peer, e, attempt)
	}
	if err := inner.Send(out); err != nil {
		return err
	}
	if hit(dupFault) {
		return inner.Send(out)
	}
	return nil
}

// Recv applies receive-path faults: a dropped delivery is consumed and
// never surfaced (the reader keeps waiting), a delayed one sleeps first.
func (c *Conn) Recv() (*transport.Envelope, error) {
	if c.plane == tierPlane {
		// Tier faults are send-side only: the leaf's downward traffic
		// (assignments, round closes) is infrastructure.
		return c.Inner().Recv()
	}
	p := c.plan
	for {
		e, err := c.Inner().Recv()
		if err != nil || !p.Enabled() {
			return e, err
		}
		attempt := c.nextRecv(e)
		if p.DropProb > 0 && p.roll(saltRecvDrop, c.peer, e.Kind, e.Round, attempt) < p.DropProb {
			c.stats.count(clientPlane, dropFault)
			continue
		}
		if p.DelayProb > 0 && p.roll(saltRecvDelay, c.peer, e.Kind, e.Round, attempt) < p.DelayProb {
			c.stats.count(clientPlane, delayFault)
			time.Sleep(c.delayFor(saltDelayMag, e, attempt))
		}
		return e, nil
	}
}

// Close closes the current underlying conn.
func (c *Conn) Close() error {
	return c.Inner().Close()
}

// delayFor returns the deterministic delay magnitude for a message, drawn
// from the given plane's magnitude stream.
func (c *Conn) delayFor(salt uint64, e *transport.Envelope, attempt int) time.Duration {
	frac := c.plan.roll(salt, c.peer, e.Kind, e.Round, attempt)
	d := time.Duration(frac * float64(c.plan.maxDelay()))
	if d <= 0 {
		d = time.Microsecond
	}
	return d
}

// corruptEnvelope returns a copy of e with a deterministic sprinkle of
// payload bytes flipped, positioned by the given salt's stream. The header
// (kind, peers, round) is left intact so the receiver can still attribute
// the garbage to its sender.
func corruptEnvelope(p *Plan, salt uint64, peer int, e *transport.Envelope, attempt int) *transport.Envelope {
	payload := append([]byte(nil), e.Payload...)
	rng := stats.Split(p.Seed, mix(salt, uint64(peer)+1, uint64(e.Kind), uint64(int64(e.Round))+2, uint64(attempt)+3))
	flips := 1 + len(payload)/512
	for i := 0; i < flips; i++ {
		pos := rng.IntN(len(payload))
		payload[pos] ^= byte(1 + rng.IntN(255))
	}
	out := *e
	out.Payload = payload
	return &out
}

// Backoff is a bounded exponential retry schedule with deterministic
// jitter, used by internal/distrib for transient send failures.
type Backoff struct {
	// Attempts is the total number of send attempts including the first
	// (default 4). Attempts <= 1 disables retry.
	Attempts int
	// Base is the delay before the first retry (default 2ms); each further
	// retry doubles it.
	Base time.Duration
	// Max caps a single delay (default 50ms).
	Max time.Duration
	// Jitter is the +/- fraction applied to each delay (default 0.2).
	Jitter float64
}

// WithDefaults fills unset fields with the defaults.
func (b Backoff) WithDefaults() Backoff {
	if b.Attempts == 0 {
		b.Attempts = 4
	}
	if b.Base == 0 {
		b.Base = 2 * time.Millisecond
	}
	if b.Max == 0 {
		b.Max = 50 * time.Millisecond
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	return b
}

// Delay returns the pause before retry number attempt (1-based: the delay
// between attempt n and attempt n+1). Jitter is drawn from rng, so a caller
// holding a deterministic stream gets a deterministic schedule. Attempts
// below 1 are clamped to the first retry rather than shifting by a negative
// count.
func (b Backoff) Delay(attempt int, rng *stats.RNG) time.Duration {
	b = b.WithDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := b.Base << (attempt - 1)
	if d > b.Max || d <= 0 {
		d = b.Max
	}
	if b.Jitter > 0 && rng != nil {
		f := 1 + b.Jitter*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d <= 0 {
		d = time.Microsecond
	}
	return d
}

// ParsePlan parses a CLI chaos spec like
//
//	drop=0.1,crash=0.2,dup=0.05,corrupt=0.01,delay=0.3,sendfail=0.1
//
// into a Plan seeded with seed. Tier-plane keys (tierdrop, tierdelay,
// tierdup, tiercorrupt, tiersendfail, leafcrash) target the aggregator
// tree's leaf→root links. Keys may appear in any order; unknown keys are an
// error. An empty spec returns nil (no chaos).
func ParsePlan(spec string, seed uint64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: seed}
	fields := map[string]*float64{
		"drop": &p.DropProb, "delay": &p.DelayProb, "dup": &p.DupProb,
		"corrupt": &p.CorruptProb, "sendfail": &p.SendFailProb, "crash": &p.CrashProb,
		"tierdrop": &p.TierDropProb, "tierdelay": &p.TierDelayProb, "tierdup": &p.TierDupProb,
		"tiercorrupt": &p.TierCorruptProb, "tiersendfail": &p.TierSendFailProb, "leafcrash": &p.LeafCrashProb,
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("faults: bad chaos term %q (want key=prob)", part)
		}
		key := strings.ToLower(strings.TrimSpace(kv[0]))
		if key == "maxdelay" {
			d, err := time.ParseDuration(strings.TrimSpace(kv[1]))
			if err != nil {
				return nil, fmt.Errorf("faults: bad maxdelay %q: %w", kv[1], err)
			}
			p.MaxDelay = d
			continue
		}
		dst, ok := fields[key]
		if !ok {
			keys := make([]string, 0, len(fields)+1)
			for k := range fields {
				keys = append(keys, k)
			}
			keys = append(keys, "maxdelay")
			sort.Strings(keys)
			return nil, fmt.Errorf("faults: unknown chaos key %q (have %s)", key, strings.Join(keys, ", "))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad probability %q for %s: %w", kv[1], key, err)
		}
		*dst = v
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan compactly for logs and experiment tables.
func (p *Plan) String() string {
	if !p.Enabled() {
		return "none"
	}
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", p.DropProb)
	add("delay", p.DelayProb)
	add("dup", p.DupProb)
	add("corrupt", p.CorruptProb)
	add("sendfail", p.SendFailProb)
	add("crash", p.CrashProb)
	add("tierdrop", p.TierDropProb)
	add("tierdelay", p.TierDelayProb)
	add("tierdup", p.TierDupProb)
	add("tiercorrupt", p.TierCorruptProb)
	add("tiersendfail", p.TierSendFailProb)
	add("leafcrash", p.LeafCrashProb)
	return strings.Join(parts, ",")
}

package distrib

import (
	"errors"
	"reflect"
	"testing"

	"fedpkd/internal/transport"
)

// TestParsePopulationEmpty pins the legacy default: the empty spec means the
// whole fleet registers up front, signaled by a nil (not empty) list.
func TestParsePopulationEmpty(t *testing.T) {
	ids, err := ParsePopulation("", 5)
	if err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if ids != nil {
		t.Fatalf("empty spec returned %v, want nil", ids)
	}
}

// TestParsePopulationSortsAndTrims pins the normalization contract: ids come
// back sorted regardless of spec order, and blank fields (stray commas,
// whitespace) are skipped rather than rejected.
func TestParsePopulationSortsAndTrims(t *testing.T) {
	ids, err := ParsePopulation(" 4,0 , 2,, 1 ,3", 5)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("got %v, want %v", ids, want)
	}
}

// TestParsePopulationRejects pins every malformed-spec class as an error, so
// typos fail at flag time instead of corrupting the registry.
func TestParsePopulationRejects(t *testing.T) {
	cases := []struct {
		name, spec string
		n          int
	}{
		{"duplicate", "0,1,1", 3},
		{"negative", "-1", 3},
		{"beyond fleet", "3", 3},
		{"far beyond fleet", "100", 3},
		{"not a number", "0,x", 3},
		{"float", "1.5", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if ids, err := ParsePopulation(tc.spec, tc.n); err == nil {
				t.Fatalf("spec %q parsed to %v, want error", tc.spec, ids)
			}
		})
	}
}

// TestParsePopulationOnlyBlanks pins the degenerate spec of nothing but
// separators: it parses to an empty (but allocated) population, meaning
// nobody is registered at start — distinct from the nil everyone-registers
// default.
func TestParsePopulationOnlyBlanks(t *testing.T) {
	ids, err := ParsePopulation(" , ,", 3)
	if err != nil {
		t.Fatalf("blank fields: %v", err)
	}
	if ids == nil || len(ids) != 0 {
		t.Fatalf("got %v (nil=%v), want an empty non-nil list", ids, ids == nil)
	}
}

// FuzzParsePopulation holds the population parser to its contract on
// arbitrary text and fleet sizes: it never panics, and every population it
// accepts lies in [0, n), ascending, with no duplicates.
func FuzzParsePopulation(f *testing.F) {
	for _, s := range []string{" 4,0 , 2,, 1 ,3", "0,1,1", "-1", "5", "x", "+3", "0x1", "9223372036854775807", ","} {
		f.Add(s, uint8(5))
	}
	f.Fuzz(func(t *testing.T, spec string, n uint8) {
		ids, err := ParsePopulation(spec, int(n))
		if err != nil {
			return
		}
		for i, id := range ids {
			if id < 0 || id >= int(n) || (i > 0 && id <= ids[i-1]) {
				t.Fatalf("ParsePopulation(%q, %d) = %v: out of range, unsorted or duplicated", spec, n, ids)
			}
		}
	})
}

// TestMuxWaitRegistered: acceptLoop registers a conn before it acks the
// attach, and a dial returns only after the ack, so the moment
// buildTransport(ModeTCP, …) returns every client id has a registered conn —
// a send to each succeeds and arrives, with no join wait in between.
func TestMuxWaitRegistered(t *testing.T) {
	const n = 4
	for range 10 {
		in := make(inbox, n+4)
		tp, err := buildTransport(ModeTCP, n, []inbox{in}, func(int) inbox { return in }, func(int) {})
		if err != nil {
			t.Fatal(err)
		}
		for id := range n {
			if err := tp.send(&transport.Envelope{Kind: transport.KindControl, From: -1, To: id}); err != nil {
				t.Fatalf("send to client %d as the fabric came up: %v", id, err)
			}
		}
		for id, c := range tp.clients {
			e, err := c.Recv()
			if err != nil || e.To != id {
				t.Fatalf("client %d: recv = %+v, %v; want the send addressed to it", id, e, err)
			}
			e.Release()
		}
		tp.cleanup()
	}
}

// dyingHello is a client conn that dies as it sends its hello.
type dyingHello struct{ transport.Conn }

func (d dyingHello) Send(e *transport.Envelope) error {
	if e.Kind == transport.KindHello {
		return d.Conn.Close()
	}
	return d.Conn.Send(e)
}

// TestWireRegistration runs wire registration: the service starts with nobody
// registered and waits, with no deadline, for every hello. Whole populations
// register on both wires and the run proceeds. A conn that dies during
// registration reaches the wait as its peer's loss and fails the run at
// once, which is why the wait needs no deadline of its own.
func TestWireRegistration(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
		dies bool
	}{
		{"bus", ModeBus, false},
		{"tcp", ModeTCP, false},
		{"tcp conn dies", ModeTCP, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewService(chaosFedAvg(t, chaosEnv(t)), Options{Mode: tc.mode, WireRegistration: true})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if tc.dies {
				svc.peers[1].conn.SetInner(dyingHello{svc.peers[1].conn.Inner()})
			}
			_, err = svc.Run(1)
			var gone *peerGoneError
			switch {
			case tc.dies && (!errors.As(err, &gone) || gone.id != 1):
				t.Fatalf("Run = %v, want client 1's connection lost", err)
			case !tc.dies && err != nil:
				t.Fatal(err)
			case !tc.dies && svc.Status().Registered != 3:
				t.Fatalf("registered %d clients over the wire, want 3", svc.Status().Registered)
			}
		})
	}
}

package ctl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// inputConn is one end of a net.Pipe whose reads come from a fixed input
// instead: the server sees the input and then EOF, and its replies still go
// over the pipe, so the test reads every one of them until the server hangs
// up.
type inputConn struct {
	net.Conn
	in io.Reader
}

func (c inputConn) Read(p []byte) (int, error) { return c.in.Read(p) }

// knownCommand reports whether dispatch knows cmd (already trimmed and
// lowercased).
func knownCommand(cmd string) bool {
	switch cmd {
	case "pause", "resume", "ping", "status", "save", "quit":
		return true
	}
	return false
}

// FuzzServeConn drives the command-line parser, the last operator-facing
// parser without a fuzzer, with arbitrary bytes: serveConn must not panic,
// must answer every non-empty line up to and including the first quit with
// exactly one JSON Response line and nothing after it, and must refuse every
// line that is not a known command. A loop sits at the gate's barrier so save
// is answered.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		"ping\n",
		"ping\nquit\nping\n",
		"pause\nsave\nstatus\nresume\n",
		"  PiNg \r\n\n\nbogus\nquit",
		"save\nsave\npause\nsave\nquit\n",
		"\x00\xff\n\t\nresume",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 4096 {
			t.Skip("longer inputs only exercise the scanner's token limit")
		}
		var want []string
		sc := bufio.NewScanner(bytes.NewReader(in))
		for sc.Scan() {
			cmd := strings.TrimSpace(strings.ToLower(sc.Text()))
			if cmd == "" {
				continue
			}
			want = append(want, cmd)
			if cmd == "quit" {
				break
			}
		}

		g := NewGate(func() (string, error) { return "ckpt", nil })
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the training loop: a round every few microseconds until quit
			defer wg.Done()
			for g.Barrier(0) == nil {
				time.Sleep(10 * time.Microsecond)
			}
		}()
		defer func() {
			g.Quit() // ends the loop, parked by pause or not
			wg.Wait()
		}()

		client, server := net.Pipe()
		defer client.Close()
		srv := &Server{gate: g, status: func() Status { return Status{Rounds: 1} }}
		go srv.serveConn(inputConn{Conn: server, in: bytes.NewReader(in)})

		replies := bufio.NewScanner(client)
		replies.Buffer(nil, 1<<20)
		var got []Response
		for replies.Scan() {
			var resp Response
			if err := json.Unmarshal(replies.Bytes(), &resp); err != nil {
				t.Fatalf("reply %d is not one JSON Response: %q: %v", len(got), replies.Text(), err)
			}
			got = append(got, resp)
		}
		if len(got) != len(want) {
			t.Fatalf("%d replies to the commands %q", len(got), want)
		}
		for i, cmd := range want {
			if got[i].OK != knownCommand(cmd) {
				t.Errorf("command %q answered %+v", cmd, got[i])
			}
		}
	})
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the program. Spans of one round share a Trace
// identifier (workload/episode/round); Parent is the span that caused this
// one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
	Bytes  int64  `json:"bytes"`
	// Self is the span's duration minus the part its children cover,
	// filled in when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs share the call sites.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id for children to name.
func (t *tracer) add(parent int, trace, layer, name string, start, end time.Time, count, bytes int64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Count: count, Bytes: bytes,
	})
	return id
}

// finish moves a span's end, for a parent recorded before its children.
func (t *tracer) finish(id int, end time.Time) {
	if t != nil {
		t.spans[id-1].End = int64(end.Sub(t.epoch))
	}
}

// selfTimes charges every span's duration to itself less its children. The
// recorder's client phases are busy time summed across parallel clients and
// can exceed their round's wall, so self time is floored at zero.
func (t *tracer) selfTimes() {
	covered := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered[s.ID]
		if s.Self < 0 {
			s.Self = 0
		}
	}
}

// write emits the spans as JSON lines.
func (t *tracer) write(path string) (err error) {
	t.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/distrib"
	"fedpkd/internal/fl"
	"fedpkd/internal/obs"
)

// counters is one reading of the process-wide counters the benchmark takes
// at the edges of a timed window, when every worker is parked.
type counters struct {
	cpuS       float64 // getrusage user+sys
	totalAlloc uint64
	mallocs    uint64
	gcPauseNS  uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{cpuS: cpuSeconds(), totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcPauseNS: ms.PauseTotalNs}
}

// heapInuseMB reads the live heap without stopping the world, so traced
// episodes can sample it at every round boundary.
func heapInuseMB() float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	var b uint64
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			b += x.Value.Uint64()
		}
	}
	return float64(b) / (1 << 20)
}

// episode is one set-up, warm-up and timed window of a workload on one
// generated input, observed from outside the program.
type episode struct {
	Seed   uint64
	Traced bool

	SetupS     float64 // episode start → end of warm-up
	EnvBuildMS float64
	FabricUpMS float64 // NewService: listen, dial, register
	TeardownMS float64 // Service.Close

	// RoundEndS[t] is when round t closed, measured from round 0's opening;
	// RoundMS holds the timed rounds' walls only.
	RoundEndS []float64
	RoundMS   []float64

	WallS       float64 // the timed window
	CPUS        float64
	AllocMB     float64
	Mallocs     float64
	GCPauseMS   float64
	HeapPeakMB  float64
	Acc         []float64           // tracked accuracy after every round
	Traffic     []comm.RoundTraffic // every round's ledger row
	Flushes     []fl.AsyncFlush
	Degraded    int
	Robust      int // non-zero robustness counters seen in traces
	Digest      string
	RoundTraces []obs.RoundTrace // timed rounds only; traced episodes
	marks       []time.Time
}

func (e *episode) rounds() int { return len(e.RoundEndS) }

// errWindowClosed stops a service at the barrier that closes the timed
// window, the way an operator's quit does, so teardown is never a round.
var errWindowClosed = errors.New("bench: timed window closed")

// runEpisode plays one episode. The program is driven only through its
// public surface: the engine runner's Run for in-process rounds, a Service
// with a Barrier callback for distributed ones. Round boundaries are
// timestamps taken between calls (in-process) or in the barrier, where all
// workers are parked.
func runEpisode(ctx context.Context, w *workload, seed uint64, traced bool) (*episode, error) {
	ep := &episode{Seed: seed, Traced: traced}
	runtime.GC() // the previous episode's garbage is not this one's set-up cost

	start := time.Now()
	ckptDir := ""
	if w.Ckpt {
		dir, err := os.MkdirTemp("", "fedpkd-bench-ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ckptDir = dir
	}
	in := w.generate(seed)
	env, err := fl.NewEnv(in.Env)
	if err != nil {
		return nil, err
	}
	ep.EnvBuildMS = msSince(start)
	runner, err := w.buildOn(env, in, ckptDir)
	if err != nil {
		return nil, err
	}
	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder(w.Algo)
	}

	total := w.Warmup + w.Rounds
	var begin, end counters
	mark := func(t int) {
		ep.marks = append(ep.marks, time.Now())
		if traced {
			if h := heapInuseMB(); h > ep.HeapPeakMB {
				ep.HeapPeakMB = h
			}
		}
		switch t {
		case w.Warmup:
			begin = readCounters()
		case total:
			end = readCounters()
		}
	}

	if w.Mode == "" {
		runner.SetRecorder(rec)
		for t := 0; t < total; t++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			mark(t)
			if _, err := runner.Run(1); err != nil {
				return nil, err
			}
		}
		mark(total)
	} else {
		opts := w.distribOptions()
		opts.Recorder = rec
		opts.Barrier = func(t int) error {
			mark(t)
			if t == total {
				return errWindowClosed
			}
			return ctx.Err()
		}
		t0 := time.Now()
		svc, err := distrib.NewService(runner, opts)
		if err != nil {
			return nil, err
		}
		ep.FabricUpMS = msSince(t0)
		_, runErr := svc.Run(total + 1)
		t0 = time.Now()
		svc.Close()
		ep.TeardownMS = msSince(t0)
		if !errors.Is(runErr, errWindowClosed) {
			if runErr == nil {
				runErr = fmt.Errorf("service ran past the window's closing barrier")
			}
			return nil, runErr
		}
	}
	if len(ep.marks) != total+1 {
		return nil, fmt.Errorf("observed %d round boundaries, want %d", len(ep.marks), total+1)
	}

	ep.SetupS = ep.marks[w.Warmup].Sub(start).Seconds()
	for t := 0; t < total; t++ {
		ep.RoundEndS = append(ep.RoundEndS, ep.marks[t+1].Sub(ep.marks[0]).Seconds())
		if t >= w.Warmup {
			ep.RoundMS = append(ep.RoundMS, float64(ep.marks[t+1].Sub(ep.marks[t]))/1e6)
		}
	}
	ep.WallS = ep.marks[total].Sub(ep.marks[w.Warmup]).Seconds()
	ep.CPUS = end.cpuS - begin.cpuS
	ep.AllocMB = float64(end.totalAlloc-begin.totalAlloc) / (1 << 20)
	ep.Mallocs = float64(end.mallocs - begin.mallocs)
	ep.GCPauseMS = float64(end.gcPauseNS-begin.gcPauseNS) / 1e6

	hist := runner.History()
	if len(hist.Rounds) != total {
		return nil, fmt.Errorf("history has %d rounds, want %d", len(hist.Rounds), total)
	}
	for _, m := range hist.Rounds {
		ep.Acc = append(ep.Acc, w.tracked(m))
	}
	ep.Traffic = runner.Ledger().Rounds()
	if len(ep.Traffic) != total {
		return nil, fmt.Errorf("ledger has %d rounds, want %d", len(ep.Traffic), total)
	}
	ep.Flushes = hist.Flushes
	ep.Degraded = hist.DegradedCount()
	if ep.Digest, err = digest(hist, ep.Traffic); err != nil {
		return nil, err
	}
	if traced {
		traces := rec.Traces()
		if len(traces) != total {
			return nil, fmt.Errorf("recorder closed %d rounds, want %d", len(traces), total)
		}
		for _, tr := range traces {
			if rb := tr.Robustness; rb != nil {
				ep.Robust += len(rb.TimedOut) + len(rb.Crashed) + rb.StaleDropped + rb.DupDropped +
					rb.CorruptDropped + rb.UnknownDropped + rb.Retries + int(rb.FaultsInjected) +
					rb.LeafTimeouts + rb.DigestRetries + rb.DigestDups + len(rb.ShardsLost)
			}
		}
		ep.RoundTraces = traces[w.Warmup:]
	}
	return ep, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// digest fingerprints what a run computed: its history and its ledger. Two
// episodes of one seed must agree on it byte for byte.
func digest(hist *fl.History, traffic []comm.RoundTraffic) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(hist); err != nil {
		return "", err
	}
	if err := enc.Encode(traffic); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// wireBytes is everything one ledger row moved: client plane plus the
// aggregator tree's backhaul.
func wireBytes(r comm.RoundTraffic) int64 {
	return r.Upload + r.Download + r.Control + r.TierUp + r.TierDown
}

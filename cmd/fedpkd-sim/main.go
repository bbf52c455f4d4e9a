// Command fedpkd-sim runs a single federated-learning simulation with full
// control over the algorithm, task, partition, fleet, and schedule, and
// prints the per-round history. Every algorithm runs on the shared round
// engine, so any of them can also execute distributed over a transport.
//
// Examples:
//
//	fedpkd-sim -algo FedPKD -task c10 -partition dirichlet -alpha 0.1 -rounds 10
//	fedpkd-sim -algo FedAvg -task c100 -partition shards -k 30
//	fedpkd-sim -algo FedMD -hetero -distributed tcp
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fedpkd"
	"fedpkd/internal/expt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedpkd-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		algoName  = fs.String("algo", "FedPKD", "algorithm: "+strings.Join(fedpkd.Algorithms(), ", "))
		task      = fs.String("task", "c10", "task: c10 or c100")
		partition = fs.String("partition", "dirichlet", "partition: iid, dirichlet, shards")
		alpha     = fs.Float64("alpha", 0.5, "Dirichlet concentration")
		k         = fs.Int("k", 3, "classes per client (shards partition)")
		clients   = fs.Int("clients", 5, "number of clients")
		rounds    = fs.Int("rounds", 6, "total communication rounds (a resumed run executes only the remainder)")
		trainSize = fs.Int("train", 3000, "training-pool size")
		pubSize   = fs.Int("public", 600, "public-set size")
		testSize  = fs.Int("test", 1000, "test-set size")
		seed      = fs.Uint64("seed", 42, "seed")
		hetero    = fs.Bool("hetero", false, "heterogeneous client fleet (ResNet11/20/29)")
		theta     = fs.Float64("theta", 0.7, "FedPKD select ratio θ")
		delta     = fs.Float64("delta", 0.5, "FedPKD server loss mix δ")
		distMode  = fs.String("distributed", "", "run the algorithm over a transport: bus or tcp")
		localEp   = fs.Int("local-epochs", 5, "baseline local epochs / FedPKD private epochs")
		serverEp  = fs.Int("server-epochs", 8, "server / distill epochs")
		traceDir  = fs.String("trace-dir", "results", "directory for round-trace JSONL/CSV output (empty disables tracing)")
		debugAddr = fs.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
		progress  = fs.Bool("progress", true, "print a per-round progress line to stderr (requires tracing)")
		workers   = fs.Int("workers", 0, "tensor-kernel worker fan-out; 0 tracks GOMAXPROCS (results are bit-identical at any width)")
		serveMode = fs.Bool("serve", false, "run as a long-lived service with an operator control plane (requires -distributed, -checkpoint-dir, -ctl-addr)")
		ctlAddr   = fs.String("ctl-addr", "", "control-plane socket: a unix socket path (contains /) or a TCP host:port")
		ctlCmd    = fs.String("ctl-cmd", "", "send one command (pause, ping, status, resume, save, quit) to the service at -ctl-addr and exit")
		popSpec   = fs.String("population", "", "comma-separated client ids registered at start, e.g. 0,1,2 (requires -distributed); others may join mid-run")
		runFlags  = expt.BindRunFlags(fs, false)
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse

	// Client mode: talk to a running service's control plane and exit.
	if *ctlCmd != "" {
		if *ctlAddr == "" {
			return fmt.Errorf("-ctl-cmd requires -ctl-addr")
		}
		resp, err := fedpkd.ControlSend(*ctlAddr, *ctlCmd, 10*time.Second)
		if err != nil {
			return err
		}
		out, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		if !resp.OK {
			return fmt.Errorf("control command %q failed: %s", *ctlCmd, resp.Err)
		}
		return nil
	}
	runSpec, err := runFlags.Spec(*seed)
	if err != nil {
		return err
	}
	dist := &runSpec.Distrib
	dist.Mode = fedpkd.DistributedMode(*distMode)
	if *serveMode && (*distMode == "" || runSpec.CheckpointDir == "" || *ctlAddr == "") {
		return fmt.Errorf("-serve requires -distributed, -checkpoint-dir, and -ctl-addr")
	}
	if *ctlAddr != "" && !*serveMode {
		return fmt.Errorf("-ctl-addr requires -serve (or -ctl-cmd)")
	}
	if *popSpec != "" && *distMode == "" {
		return fmt.Errorf("-population requires -distributed")
	}
	if dist.Topology.Enabled() && *distMode == "" {
		return fmt.Errorf("-shards requires -distributed")
	}
	if (dist.LeafTimeout != 0 || dist.ShardQuorum != 0) && !dist.Topology.Enabled() {
		return fmt.Errorf("-leaf-timeout and -shard-quorum require -shards > 1")
	}
	if *distMode == "" && (dist.Faults != nil || dist.ClientTimeout != 0 || dist.MinQuorum != 0) {
		return fmt.Errorf("-chaos, -client-timeout, and -min-quorum require -distributed")
	}

	fedpkd.SetKernelWorkers(*workers)

	if *debugAddr != "" {
		dbg, err := fedpkd.StartDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/\n", dbg.Addr())
	}

	spec := fedpkd.SynthC10(*seed)
	if *task == "c100" {
		spec = fedpkd.SynthC100(*seed)
	} else if *task != "c10" {
		return fmt.Errorf("unknown task %q", *task)
	}

	var pcfg fedpkd.PartitionConfig
	switch *partition {
	case "iid":
		pcfg = fedpkd.PartitionConfig{Kind: fedpkd.PartitionIID}
	case "dirichlet":
		pcfg = fedpkd.PartitionConfig{Kind: fedpkd.PartitionDirichlet, Alpha: *alpha}
	case "shards":
		perClient := *trainSize / *clients
		pcfg = fedpkd.PartitionConfig{Kind: fedpkd.PartitionShards, Shards: fedpkd.ShardConfig{
			ShardSize: 10, ShardsPerClient: perClient / 10, ClassesPerClient: *k,
		}}
	default:
		return fmt.Errorf("unknown partition %q", *partition)
	}

	env, err := fedpkd.NewEnvironment(fedpkd.EnvConfig{
		Spec:       spec,
		NumClients: *clients,
		TrainSize:  *trainSize, TestSize: *testSize, PublicSize: *pubSize,
		LocalTestSize: 100,
		Partition:     pcfg,
		Seed:          *seed,
	})
	if err != nil {
		return err
	}

	// Project the flag schedule onto an experiment scale so algorithm
	// construction goes through the same builder fedbench uses.
	sc := fedpkd.ScaleQuick
	sc.NumClients = *clients
	sc.Rounds = *rounds
	sc.PKDPrivateEpochs, sc.PKDPublicEpochs, sc.PKDServerEpochs = *localEp, 3, *serverEp
	sc.LocalEpochs = *localEp
	sc.DistillEpochs = *serverEp
	sc.FedDFLocalEpochs, sc.FedDFServerEpochs = *localEp, 2
	sc.FedETServerEpochs = *serverEp
	sc.VanillaServerEpoch = *serverEp

	algo, err := fedpkd.BuildAlgorithm(*algoName, env, sc, *seed, *hetero,
		fedpkd.AlgoOptions{Theta: *theta, Delta: *delta})
	if err != nil {
		return err
	}

	if *traceDir != "" {
		runSpec.Recorder = fedpkd.NewRecorder(*algoName)
		if *progress {
			runSpec.Recorder.OnRoundEnd(func(tr fedpkd.RoundTrace) {
				fmt.Fprintln(os.Stderr, tr.ProgressLine())
			})
		}
	}
	warnings, err := fedpkd.Configure(algo, runSpec)
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "fedpkd-sim:", w)
	}
	if err != nil {
		return err
	}
	done, err := fedpkd.CompletedRounds(algo)
	if err != nil {
		return err
	}
	if runSpec.Resume != "" {
		fmt.Fprintf(os.Stderr, "resumed %s at round %d from %s\n", *algoName, done, runSpec.Resume)
	}

	var history *fedpkd.History
	if *distMode != "" {
		if *popSpec != "" {
			if dist.Population, err = fedpkd.ParsePopulation(*popSpec, *clients); err != nil {
				return err
			}
		}
		var gate *fedpkd.ControlGate
		if *serveMode {
			// Serve mode: registration arrives as observable wire traffic, the
			// control gate runs at every round barrier, and the operator's save
			// command writes through the same rolling-checkpoint path the
			// -checkpoint-every policy uses.
			gate = fedpkd.NewControlGate(func() (string, error) {
				return fedpkd.SaveCheckpoint(algo, runSpec.CheckpointDir)
			})
			dist.Barrier = gate.Barrier
			dist.WireRegistration = true
			if dist.Topology.Enabled() {
				// Tree mode: the demultiplexer owns the fan-in socket, so
				// registration cannot arrive as wire traffic. The registry is
				// seeded from -population (or the whole fleet) instead.
				dist.WireRegistration = false
				fmt.Fprintln(os.Stderr, "fedpkd-sim: tree-serve mode pre-registers the fleet (wire registration needs the flat fan-in)")
			}
		}
		if *rounds < done {
			return fmt.Errorf("-rounds %d but %d rounds already completed", *rounds, done)
		}
		svc, err := fedpkd.NewService(algo, *dist)
		if err != nil {
			return err
		}
		defer svc.Close()
		if gate != nil {
			srv, err := fedpkd.ServeControl(*ctlAddr, gate, func() fedpkd.ControlStatus {
				ss := svc.Status()
				st := fedpkd.ControlStatus{
					Algo: ss.Algo, Round: ss.Round, Rounds: *rounds,
					Registered: ss.Registered, Online: ss.Online, Cohort: ss.Cohort,
				}
				for _, sh := range ss.Shards {
					st.Shards = append(st.Shards, fedpkd.ControlShardHealth{
						Shard:           sh.Shard,
						LastDigestRound: sh.LastDigestRound,
						Retries:         sh.Retries,
						Lost:            sh.Lost,
					})
				}
				return st
			})
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "serving %s with control plane on %s\n", *algoName, srv.Addr())
		}
		history, err = svc.Run(*rounds - done)
		if gate != nil {
			gate.Finish()
		}
		if errors.Is(err, fedpkd.ErrControlQuit) {
			fmt.Fprintln(os.Stderr, "stopped by operator quit; resume later with -resume")
			err = nil
		}
		if err != nil {
			return err
		}
	} else if history, err = fedpkd.RunAlgorithmUntil(algo, *rounds); err != nil {
		return err
	}

	if rec := runSpec.Recorder; rec != nil {
		prefix := strings.ToLower(strings.ReplaceAll(*algoName, "-", ""))
		jsonlPath, csvPath, err := rec.DumpFiles(*traceDir, prefix)
		if err != nil {
			return fmt.Errorf("write traces: %w", err)
		}
		fmt.Fprintf(os.Stderr, "round traces written to %s and %s\n", jsonlPath, csvPath)
	}

	fmt.Printf("%s on %s [%s], %d clients\n\n", history.Algo, history.Dataset, history.Setting, *clients)
	fmt.Println("round  S_acc   C_acc   cumulative MB")
	for _, r := range history.Rounds {
		s, c := "  N/A", "  N/A"
		if r.ServerAcc >= 0 {
			s = fmt.Sprintf("%5.1f%%", r.ServerAcc*100)
		}
		if r.ClientAcc >= 0 {
			c = fmt.Sprintf("%5.1f%%", r.ClientAcc*100)
		}
		fmt.Printf("%5d  %s  %s  %10.2f\n", r.Round, s, c, r.CumulativeMB)
	}
	if len(history.Flushes) > 0 {
		fmt.Printf("\nasync: %d buffer flush(es), simulated wall-clock %d ticks\n",
			len(history.Flushes), history.FinalClock())
	}
	if n := history.DegradedCount(); n > 0 {
		fmt.Printf("\n%d partial round(s):\n", n)
		for _, d := range history.Degraded {
			fmt.Printf("  round %d aggregated %d/%d clients (missing %v)\n", d.Round, d.Cohort, d.Expected, d.Missing)
		}
	}
	return nil
}

// Failure injection: runs FedPKD with full participation, with partial
// (half the clients per round), and with a 30% per-round client crash
// probability, showing how the protocol degrades gracefully — absent
// clients simply contribute no knowledge that round.
//
// The second half repeats the dropout curve over the real distributed
// runtime: deterministic chaos is injected beneath the wire protocol, the
// server's straggler deadline turns lost clients into partial cohorts, and
// the history records exactly which rounds aggregated fewer uploads.
//
//	go run ./examples/failures
package main

import (
	"fmt"
	"log"
	"time"

	"fedpkd"
)

func main() {
	env, err := fedpkd.NewEnvironment(fedpkd.EnvConfig{
		Spec:       fedpkd.SynthC10(31),
		NumClients: 6,
		TrainSize:  1200, TestSize: 600, PublicSize: 400, LocalTestSize: 80,
		Partition: fedpkd.PartitionConfig{Kind: fedpkd.PartitionDirichlet, Alpha: 0.3},
		Seed:      31,
	})
	if err != nil {
		log.Fatal(err)
	}

	base := fedpkd.Config{
		Env:                 env,
		ClientPrivateEpochs: 3,
		ClientPublicEpochs:  1,
		ServerEpochs:        5,
		Seed:                31,
	}
	scenarios := []struct {
		name   string
		mutate func(*fedpkd.Config)
	}{
		{"full participation", func(*fedpkd.Config) {}},
		{"half participate", func(c *fedpkd.Config) { c.ClientFraction = 0.5 }},
		{"30% crash per round", func(c *fedpkd.Config) { c.ClientDropProb = 0.3 }},
	}

	const rounds = 4
	fmt.Printf("%-22s  %-8s  %-8s  %-10s\n", "scenario", "S_acc", "C_acc", "traffic MB")
	for _, sc := range scenarios {
		cfg := base
		sc.mutate(&cfg)
		algo, err := fedpkd.NewFedPKD(cfg)
		if err != nil {
			log.Fatal(err)
		}
		hist, err := algo.Run(rounds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s  %-8.1f  %-8.1f  %-10.2f\n",
			sc.name, hist.FinalServerAcc()*100, hist.FinalClientAcc()*100, hist.TotalMB())
	}
	fmt.Println("\n(absent clients cost accuracy and save traffic; the protocol never stalls)")

	// The same dropout curve over the real wire: every client is its own
	// goroutine talking to the server through the transport layer, and a
	// seeded chaos plan crashes clients mid-round. A finite ClientTimeout
	// lets the server aggregate whatever arrived instead of waiting forever.
	fmt.Printf("\ndistributed chaos (seeded, reproducible):\n")
	fmt.Printf("%-22s  %-8s  %-8s  %-14s  %-10s\n", "fault plan", "S_acc", "C_acc", "partial rounds", "traffic MB")
	for _, crash := range []float64{0, 0.2, 0.4} {
		var plan *fedpkd.FaultPlan
		if crash > 0 {
			plan = &fedpkd.FaultPlan{Seed: 31, CrashProb: crash}
		}
		algo, err := fedpkd.NewFedPKD(base)
		if err != nil {
			log.Fatal(err)
		}
		hist, err := fedpkd.RunDistributed(algo, rounds, fedpkd.DistributedOptions{
			Mode:          fedpkd.ModeBus,
			ClientTimeout: time.Minute,
			Faults:        plan,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s  %-8.1f  %-8.1f  %-14d  %-10.2f\n",
			plan.String(), hist.FinalServerAcc()*100, hist.FinalClientAcc()*100,
			hist.DegradedCount(), hist.TotalMB())
	}
	fmt.Println("\n(same seed, same fault schedule, same history — chaos runs are reproducible)")
}

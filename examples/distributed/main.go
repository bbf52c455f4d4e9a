// Distributed execution: runs FedPKD with the server and every client in
// separate goroutines that exchange dual knowledge exclusively over real
// loopback TCP connections — the same wire protocol a multi-host deployment
// would speak. Compares the measured wire bytes against the in-process
// analytic accounting.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"fedpkd"
)

func main() {
	env, err := fedpkd.NewEnvironment(fedpkd.EnvConfig{
		Spec:       fedpkd.SynthC10(23),
		NumClients: 3,
		TrainSize:  900, TestSize: 500, PublicSize: 200, LocalTestSize: 60,
		Partition: fedpkd.PartitionConfig{Kind: fedpkd.PartitionDirichlet, Alpha: 0.3},
		Seed:      23,
	})
	if err != nil {
		log.Fatal(err)
	}

	cfg := fedpkd.Config{
		Env:                 env,
		ClientPrivateEpochs: 3,
		ClientPublicEpochs:  2,
		ServerEpochs:        6,
		Seed:                23,
	}

	const rounds = 3
	fmt.Println("running FedPKD over loopback TCP...")
	dist, err := fedpkd.NewFedPKD(cfg)
	if err != nil {
		log.Fatal(err)
	}
	overTCP, err := fedpkd.RunDistributed(dist, rounds, fedpkd.DistributedOptions{Mode: fedpkd.ModeTCP})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running the in-process reference...")
	ref, err := fedpkd.NewFedPKD(cfg)
	if err != nil {
		log.Fatal(err)
	}
	inproc, err := ref.Run(rounds)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s  %-8s  %-8s  %-10s\n", "run", "S_acc", "C_acc", "traffic MB")
	for _, h := range []*fedpkd.History{overTCP, inproc} {
		fmt.Printf("%-22s  %-8.1f  %-8.1f  %-10.2f\n",
			h.Algo, h.FinalServerAcc()*100, h.FinalClientAcc()*100, h.TotalMB())
	}
	fmt.Println("\n(the TCP run measures real encoded wire bytes; the in-process run")
	fmt.Println(" uses the 4-bytes-per-value analytic model of the paper's accounting)")
}

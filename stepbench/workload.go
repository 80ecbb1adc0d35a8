package main

import "ace/internal/fault"

// workload is one closed-loop service-step configuration.
type workload struct {
	name        string
	peers, phys int
	degree      int // average overlay degree c
	depth       int // closure depth h
	shards      int // ace.WithShards: 0 serial, -1 one per GOMAXPROCS

	churn     int        // peers churned per step (leave or crash, then rejoin)
	plan      fault.Plan // fault plan; the zero plan injects nothing
	queries   int        // ACE queries per step
	service   bool       // sinks (metrics stream, flight recorder) and a checkpoint every step
	steps     int        // steps per epoch: a set-up followed by this many steps
	digest    int        // step at which every epoch floods its sample, and the first takes the trajectory digest
	sample    int        // (source, responder) pairs in an epoch's sample
	sameScope bool       // every ACE query must reach its source's whole component
	// epochs is the least number of epochs a run makes. setup_s is the
	// median of their set-ups, and the quality metrics come from their
	// samples, so that they repeat exactly for a seed.
	epochs int
}

// primingRounds is the number of optimization rounds run during
// set-up.
const primingRounds = 3

// clients is the number of closed-loop clients flooding every query
// batch (nproc on the reference host).
const clients = 2

var workloads = []workload{
	// High R: the flood kernel and tree forwarding dominate the step.
	{
		name:  "query-serving",
		peers: 5000, phys: 5000, degree: 8, depth: 1,
		churn: 5, queries: 64,
		steps: 5, digest: 3, sample: 32, sameScope: true,
		epochs: 3, // 960 step and 96 sample queries: a p99 with ten beyond it
	},
	// R near 0 and h=2: Phases 1-2 (dirty region, closure, MST) dominate.
	{
		name:  "deep-closure",
		peers: 1000, phys: 2000, degree: 8, depth: 2,
		churn: 10,
		steps: 4, digest: 3, sample: 100,
		epochs: 5, // a 1,000-peer topology's optimization varies: average five
	},
	// acesim's service mode at low R: the only workload that runs the
	// sharded merge, the fault reactions, the sinks and the checkpoint.
	{
		name:  "service-sharded",
		peers: 5000, phys: 5000, degree: 8, depth: 1, shards: -1,
		churn: 10, queries: 2, service: true,
		plan:  fault.Plan{LossRate: 0.05, ProbeTimeoutRate: 0.05, ConnectFailRate: 0.05, CrashFraction: 0.25},
		steps: 10, digest: 5, sample: 32,
		epochs: 3,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

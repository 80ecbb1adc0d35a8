package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ace"
	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/gnutella"
	"ace/internal/obs"
	"ace/internal/obs/tracer"
	"ace/internal/overlay"
	"ace/internal/sim"
	"ace/internal/snap"
)

// runner drives one workload as a closed loop from one process.
type runner struct {
	w     workload
	seed  int64 // the run's seed
	eseed int64 // the current epoch's seed
	plan  fault.Plan
	dir   string // scratch directory for the sinks and checkpoints
	sys   *ace.System
	inj   *fault.Injector
	gen   *generator
	rec   *recorder // the current step's recorder; nil on untraced steps
	trace *recorder // the run's recorder, when tracing

	stream   *obs.Stream
	streamF  *os.File
	flight   *tracer.FlightRecorder
	store    *snap.Store
	lastSnap *snap.Snapshot

	ref   *refKernel
	refMS []float64 // every reference kernel time, in run order

	// Results: wall times as measured, each with the index in refMS of
	// the kernel run that followed it (see scaled).
	setupS, warmS      []float64
	stepMS, tracedMS   []float64
	tracedNanos        int64 // summed duration of the traced steps
	untracedMS         []float64
	queryMS, batchMS   []float64
	setupK, stepK      []int
	queryK, batchK     []int
	epochs             int
	queriesRun         int
	queriesUnanswered  int
	checkpoints        int
	checkpointFailures int
	errs               []string

	memBefore, memAfter runtime.MemStats
	allocBytes, gcs     uint64 // allocated and collected inside steps

	reps       []core.StepReport
	aceQueries queryTotals
	quality    quality
	digest     string
	goAllocMB  float64
	goGC       float64
	rebuilt    int
	oracle     struct{ dijkstras, queries uint64 }
	snapBytes  int
}

// queryTotals sums per-query flood counts.
type queryTotals struct {
	n, transmissions, scope, lost int
	traffic                       float64
}

func (t *queryTotals) add(q gnutella.QueryResult) {
	t.n++
	t.transmissions += q.Transmissions
	t.scope += q.Scope
	t.lost += q.Lost
	t.traffic += q.TrafficCost
}

// quality is the paper's §4.2 comparison, summed over the samples of
// the first w.epochs epochs.
type quality struct {
	ace, blind                                      queryTotals
	aceResp, blindResp                              float64
	trafficReduction, responseRatio, scopeRetention float64
	blindMS                                         []float64
	blindUnanswered                                 int
}

func (r *runner) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// build constructs the system through the public entry point, attaches
// the fault plan, fills the oracle with the first table exchange, and
// runs the priming rounds: everything set-up covers. The previous
// epoch's system is dropped and collected first.
func (r *runner) build() error {
	r.sys, r.inj = nil, nil
	runtime.GC()
	start := time.Now()
	sys, err := ace.NewSystem(
		ace.WithSeed(r.eseed),
		ace.WithSize(r.w.phys, r.w.peers),
		ace.WithAvgDegree(r.w.degree),
		ace.WithDepth(r.w.depth),
		ace.WithShards(r.w.shards),
	)
	if err != nil {
		return err
	}
	var inj *fault.Injector
	if r.plan.Active() {
		if inj, err = fault.NewInjector(r.plan); err != nil {
			return err
		}
		sys.Network().SetFaults(inj)
	}
	warm := time.Now()
	sys.Optimizer().RebuildTrees()
	r.warmS = append(r.warmS, time.Since(warm).Seconds())
	sys.Optimize(primingRounds)
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	r.setupK = append(r.setupK, r.kernel())
	r.sys, r.inj = sys, inj
	return nil
}

// kernel runs the reference kernel and returns the index of its time in
// refMS.
func (r *runner) kernel() int {
	r.refMS = append(r.refMS, r.ref.run())
	return len(r.refMS) - 1
}

// scaled returns the intervals ms scaled to the reference host's speed:
// each by refKernelMS over the median of the refWindow kernel times
// nearest the kernel run k[i] that followed it. The median over a few
// neighbouring runs follows the host's speed from second to second
// without taking on a single kernel run's noise.
func (r *runner) scaled(ms []float64, k []int) []float64 {
	out := make([]float64, len(ms))
	for i, x := range ms {
		lo := max(0, min(k[i]-refWindow/2, len(r.refMS)-refWindow))
		hi := min(len(r.refMS), lo+refWindow)
		out[i] = x * refKernelMS / median(r.refMS[lo:hi])
	}
	return out
}

// setup opens the service-mode sinks, which live for the whole run, and
// builds the reference kernel.
func (r *runner) setup() error {
	r.ref = newRefKernel()
	r.ref.run() // first touch of the kernel's memory
	r.kernel()
	if !r.w.service {
		return nil
	}
	var err error
	if r.streamF, err = os.Create(filepath.Join(r.dir, "metrics.jsonl")); err != nil {
		return err
	}
	r.stream = obs.NewStream(r.streamF)
	r.flight = tracer.NewFlightRecorder(tracer.Default(), tracer.FlightConfig{Dir: r.dir, Prefix: "flight"})
	return nil
}

// epochSeed is the seed of a run's epoch e: the run's seed for the
// first epoch, and a seed derived from it for each later one.
func epochSeed(seed int64, e int) int64 {
	if e == 0 {
		return seed
	}
	return sim.NewRNG(seed).DeriveN("epoch", e).Seed()
}

// loop runs epochs until seconds have passed, and at least the
// workload's least number of epochs. An epoch is a set-up
// followed by the workload's steps, on a system and inputs of its own
// seed. Every epoch's steps are the same length of trajectory, so a
// run's figures do not depend on how many epochs fit: the overlay
// densifies round by round, and a step's cost with it. The epochs'
// different topologies and churn average out a single seed's
// peculiarities. At its digest step every epoch floods a sample (see
// sample). In a traced run every other step records spans, so the same
// run also measures the steps without them.
func (r *runner) loop(seconds float64, traced bool) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	n := 0 // steps so far, over all epochs
	for ; r.epochs < r.w.epochs || time.Now().Before(deadline); r.epochs++ {
		r.eseed = epochSeed(r.seed, r.epochs)
		r.gen = newGenerator(r.eseed)
		if r.plan.Active() {
			r.plan.Seed = r.eseed
		}
		if r.w.service {
			// Each epoch is a deployment of its own, with its own store.
			var err error
			if r.store, err = snap.OpenStore(filepath.Join(r.dir, fmt.Sprintf("checkpoint-%d", r.epochs))); err != nil {
				return err
			}
		}
		if err := r.build(); err != nil {
			return err
		}
		rebuilt0 := r.sys.Optimizer().RebuildStats().PeersRebuilt
		for k := 1; k <= r.w.steps; k++ {
			n++
			in := r.gen.step(k, r.sys.Network(), r.w)
			r.rec = nil
			if traced && n%2 == 1 {
				r.rec = r.trace
				r.rec.step = n
			}
			d, latency, batch := r.step(k, in)
			ki := r.kernel()
			r.stepMS = append(r.stepMS, d)
			r.stepK = append(r.stepK, ki)
			if len(latency) > 0 {
				r.addQueries(latency, batch, ki)
			}
			if r.rec != nil {
				r.tracedMS = append(r.tracedMS, d)
			} else {
				r.untracedMS = append(r.untracedMS, d)
			}
			if k == r.w.digest {
				r.sample(&deadline)
			}
		}
		r.rebuilt += r.sys.Optimizer().RebuildStats().PeersRebuilt - rebuilt0
		st := r.sys.Network().Oracle().Stats()
		r.oracle.dijkstras += st.Dijkstras
		r.oracle.queries += st.Queries
	}
	steps := float64(len(r.stepMS))
	r.goAllocMB = float64(r.allocBytes) / (1 << 20) / steps
	r.goGC = float64(r.gcs) / steps
	return nil
}

// step runs one service step and returns its duration, its queries'
// latencies and their batch's duration, in milliseconds. Everything
// between the two clock reads is the step; the memory statistics read
// around them and the checks after them are outside it. A traced
// step's root span runs between the same two clock reads.
func (r *runner) step(k int, in stepInput) (d float64, latency []float64, batch float64) {
	net, opt := r.sys.Network(), r.sys.Optimizer()
	var results []gnutella.QueryResult

	runtime.ReadMemStats(&r.memBefore)
	start := time.Now()
	r.rec.beginAt("step", start)

	r.rec.begin("overlay.churn")
	for i, p := range in.victims {
		if in.crash[i] {
			r.rec.begin("overlay.crash")
			net.Crash(p)
		} else {
			r.rec.begin("overlay.leave")
			net.Leave(p)
		}
		r.rec.end()
	}
	for _, p := range in.rejoin {
		r.rec.begin("overlay.join")
		net.Join(in.joinRNG, p, r.w.degree)
		r.rec.end()
	}
	r.rec.end()

	r.rec.begin("core.round")
	rep := opt.Round(r.sys.RNG())
	r.rec.end()

	r.rec.begin("core.sync")
	opt.RebuildTrees()
	r.rec.end()

	if len(in.queries) > 0 {
		r.rec.begin("gnutella.query_batch")
		results, latency, batch = r.queryBatch(in.queries)
		r.rec.end()
	}

	if r.w.service {
		r.sinks(k, rep, in.queries, results)
		r.checkpoint(k)
	}

	end := time.Now()
	r.rec.endAt(end)
	runtime.ReadMemStats(&r.memAfter)
	r.allocBytes += r.memAfter.TotalAlloc - r.memBefore.TotalAlloc
	r.gcs += uint64(r.memAfter.NumGC - r.memBefore.NumGC)
	if r.rec != nil {
		r.tracedNanos += int64(end.Sub(start))
	}
	d = float64(end.Sub(start)) / 1e6

	r.reps = append(r.reps, rep)
	r.account(k, in.queries, results)
	return d, latency, batch
}

// addQueries adds a batch's query latencies and its duration to the
// run's timed queries; ki is the kernel run that followed the batch.
func (r *runner) addQueries(latency []float64, batch float64, ki int) {
	for _, ms := range latency {
		r.queryMS = append(r.queryMS, ms)
		r.queryK = append(r.queryK, ki)
	}
	r.batchMS = append(r.batchMS, batch)
	r.batchK = append(r.batchK, ki)
}

// account checks a batch's floods and adds them to the run's query
// counts.
func (r *runner) account(k int, qs []query, results []gnutella.QueryResult) {
	for i, q := range results {
		r.checkQuery(k, "query", i, q)
		r.aceQueries.add(q)
		r.queriesRun++
		if math.IsInf(q.FirstResponse, 1) {
			r.queriesUnanswered++
		}
	}
	if r.w.sameScope && len(qs) > 0 {
		comp := componentSizes(r.sys.Network())
		for i, q := range results {
			if want := comp[qs[i].src]; q.Scope != want {
				r.fail("step %d query %d: ACE scope %d, blind flooding reaches %d", k, i, q.Scope, want)
			}
		}
	}
}

// clientLoop runs op(0..n-1) from the given number of closed-loop
// clients: each takes the next unclaimed index as soon as its previous
// operation returns. The oracle is warm from set-up, so the floods'
// results do not depend on which client runs which query.
func clientLoop(n, clients int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				op(i)
			}
		}()
	}
	wg.Wait()
}

// queryBatch floods ACE queries from the closed-loop clients, timing
// each query and the whole batch.
func (r *runner) queryBatch(qs []query) ([]gnutella.QueryResult, []float64, float64) {
	results := make([]gnutella.QueryResult, len(qs))
	latency := make([]float64, len(qs))
	start := time.Now()
	clientLoop(len(qs), clients, func(i int) {
		t := time.Now()
		results[i] = r.sys.Query(qs[i].src, 0, map[overlay.PeerID]bool{qs[i].responder: true})
		latency[i] = float64(time.Since(t)) / 1e6
	})
	return results, latency, float64(time.Since(start)) / 1e6
}

// sinks emits the step's round and query records through the metrics
// stream and feeds the flight recorder, as acesim's -metrics and
// -flight modes do.
func (r *runner) sinks(k int, rep core.StepReport, qs []query, results []gnutella.QueryResult) {
	net := r.sys.Network()
	r.rec.begin("obs.emit")
	answered := 0
	for i, q := range results {
		rec := obs.QueryRecord{
			Label: fmt.Sprintf("step%d", k), Round: k, Index: i,
			Source: int(qs[i].src), Scope: q.Scope, Traffic: q.TrafficCost,
			Transmissions: q.Transmissions, Duplicates: q.Duplicates, TraceGUID: q.TraceGUID,
		}
		rec.SetResponseMS(q.FirstResponse)
		r.stream.EmitQuery(rec)
		if !math.IsInf(q.FirstResponse, 1) {
			answered++
		}
	}
	r.stream.EmitRound(obs.RoundRecord{
		Round:        k,
		RebuildNanos: rep.RebuildNanos, Phase3Nanos: rep.Phase3Nanos, RepairNanos: rep.RepairNanos,
		Probes: rep.Probes, Replacements: rep.Replacements, KeptNew: rep.KeptNew,
		DeferredCuts: rep.DeferredCuts, Abandoned: rep.Abandoned, Repairs: rep.Repairs,
		RepairHits: rep.RepairHits, RepairFallbacks: rep.RepairFallbacks,
		AttachOps: rep.AttachOps, SwapOps: rep.SwapOps,
		ProbeTraffic: rep.ProbeTraffic, ExchangeCost: rep.ExchangeCost,
		AvgDegree:    net.AverageDegree(),
		ProbeRetries: rep.ProbeRetries, ProbeTimeouts: rep.ProbeTimeouts,
		StaleMarked: rep.StaleMarked, StaleExpired: rep.StaleExpired,
		BlacklistHits: rep.BlacklistHits, FailedConnects: rep.FailedConnects,
		PurgedEdges: rep.PurgedEdges,
		TraceSeq:    tracer.Default().RoundSeq(),
	})
	if err := r.stream.Err(); err != nil {
		r.fail("metrics stream: %v", err)
	}
	r.rec.end()

	success := -1.0
	if len(results) > 0 {
		success = float64(answered) / float64(len(results))
	}
	r.rec.begin("obs.flight_note")
	r.flight.Note(tracer.RoundStats{
		Round:           tracer.Default().RoundSeq(),
		WallNanos:       rep.RebuildNanos + rep.Phase3Nanos + rep.RepairNanos,
		SuccessRate:     success,
		SerialFallbacks: rep.MergeSerialFallbacks,
		RepairFallbacks: rep.RepairFallbacks,
		ProbeTimeouts:   rep.ProbeTimeouts,
	})
	if err := r.flight.Err(); err != nil {
		r.fail("flight recorder: %v", err)
	}
	r.rec.end()
}

// checkpoint captures the engine state at this rebuild boundary and
// saves it crash-safely (encode, fsync, rename) into the store.
func (r *runner) checkpoint(k int) {
	r.rec.begin("snap.capture")
	netState := r.sys.Network().SnapshotState()
	optState := r.sys.Optimizer().SnapshotState()
	r.rec.end()
	sn := &snap.Snapshot{
		Meta: snap.Meta{
			Step: int64(k), Seed: r.eseed,
			PhysicalNodes: int64(r.w.phys), Peers: int64(r.w.peers), AvgDegree: int64(r.w.degree),
			Depth: int64(r.w.depth), Shards: int64(r.w.shards), Policy: int64(ace.PolicyRandom),
			Queries: int64(r.w.queries), ChurnPeers: int64(r.w.churn),
			Plan: r.plan, FaultAttached: r.inj != nil, FaultBase: r.inj.Stats(),
		},
		Net:  netState,
		Opt:  optState,
		RNGs: []snap.RNGPos{{Name: "system", Pos: r.sys.RNG().Pos()}},
	}
	r.rec.begin("snap.save")
	err := r.store.Save(sn)
	r.rec.end()
	r.checkpoints++
	if err != nil {
		r.checkpointFailures++
		r.fail("checkpoint step %d: %v", k, err)
		return
	}
	r.lastSnap = sn
}

// sample floods the epoch's sample of (source, responder) pairs with
// ACE trees, as one more timed query batch. In the first w.epochs
// epochs it then floods the same pairs blind, untimed and outside the
// seconds, and adds both to the paper's traffic, response-time and
// scope comparison, so that the comparison repeats exactly for a seed;
// the first epoch also takes the trajectory digest there.
func (r *runner) sample(deadline *time.Time) {
	qs := r.gen.sample(r.sys.Network(), r.w.sample)
	aceRes, latency, batch := r.queryBatch(qs)
	r.addQueries(latency, batch, r.kernel())
	r.account(r.w.digest, qs, aceRes)
	if r.epochs >= r.w.epochs {
		return
	}

	paused := time.Now()
	if r.epochs == 0 {
		r.digest = trajectoryDigest(r.sys.Network(), r.reps)
	}
	blindRes := make([]gnutella.QueryResult, len(qs))
	blindMS := make([]float64, len(qs))
	clientLoop(len(qs), clients, func(i int) {
		t := time.Now()
		blindRes[i] = r.sys.QueryBlind(qs[i].src, 0, map[overlay.PeerID]bool{qs[i].responder: true})
		blindMS[i] = float64(time.Since(t)) / 1e6
	})
	t := &r.quality
	t.blindMS = append(t.blindMS, blindMS...)
	for i, a := range aceRes {
		b := blindRes[i]
		r.checkQuery(r.w.digest, "blind sample query", i, b)
		if r.w.sameScope && a.Scope != b.Scope {
			r.fail("sample %d: ACE scope %d, blind scope %d", i, a.Scope, b.Scope)
		}
		t.ace.add(a)
		t.blind.add(b)
		if math.IsInf(b.FirstResponse, 1) {
			t.blindUnanswered++
		}
		if math.IsInf(a.FirstResponse, 1) || math.IsInf(b.FirstResponse, 1) {
			continue
		}
		t.aceResp += a.FirstResponse
		t.blindResp += b.FirstResponse
	}
	t.trafficReduction = 1 - t.ace.traffic/t.blind.traffic
	t.scopeRetention = float64(t.ace.scope) / float64(t.blind.scope)
	t.responseRatio = t.aceResp / t.blindResp
	*deadline = deadline.Add(time.Since(paused))
}

// Command stepbench is the repository's end-to-end benchmark: it builds
// one simulated deployment through the public entry points and drives
// acesim's service step as a closed loop — churn, an ACE round, the
// trailing table exchange, a query batch, and (in service mode) the
// metrics sinks and a checkpoint — timing each call into a layer from
// outside and checking the outputs. End-to-end times are scaled to the
// reference host's speed by a reference kernel run between the timed
// intervals (speed.go).
//
// Usage (from the repository root):
//
//	bash stepbench/run.sh --workload query-serving --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics, taken
// from spans the benchmark records around every layer call on every
// other step (spans go to .bench_build/). A failed output check prints
// the failures to standard error and exits 1 without a result.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"ace/internal/obs/tracer"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("stepbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed step loop")
	trace := fs.Int("trace", 0, "1 records layer spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "stepbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "stepbench: --trace must be 0 or 1")
		return 2
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &runner{w: w, seed: *seed, plan: w.plan, dir: dir}
	if w.service {
		// acesim's -flight mode: the always-on small rings.
		tracer.Enable(tracer.FlightCapacity)
	}
	if err := r.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "stepbench: set-up:", err)
		return 1
	}
	if *trace == 1 {
		r.trace = newRecorder()
	}
	if err := r.loop(*seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "stepbench: set-up:", err)
		return 1
	}

	// Output checks, outside the timed region.
	r.checkAdjacency()
	if w.service {
		if err := r.streamF.Close(); err != nil {
			r.fail("metrics stream: close: %v", err)
		}
		r.checkCheckpoint()
	}
	if r.trace != nil {
		r.checkAttribution()
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := r.trace.write(path); err != nil {
			r.fail("%v", err)
		}
	}
	if len(r.errs) > 0 {
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, "stepbench: check failed:", e)
		}
		return 1
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	rec, err := json.Marshal(map[string]any{"record": r.record(*seconds)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(rec))
	metrics := r.endToEnd()
	if *trace == 1 {
		metrics = r.perLayer()
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "stepbench: check failed: metric %s is %v\n", name, m.Value)
			return 1
		}
	}
	attempted, failed := r.operations()
	res, err := json.Marshal(map[string]any{
		"correct": true, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(res))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// operations counts the operations attempted — steps, queries and
// checkpoints — and those that failed: a checkpoint whose Save errs,
// and a query that gets no response where no fault plan is injected.
// Under an injected plan, unanswered queries are the simulated
// outcome of the loss the plan injects, and are reported as
// gnutella.unanswered_ratio instead.
func (r *runner) operations() (attempted, failed int) {
	attempted = len(r.stepMS) + r.queriesRun + len(r.quality.blindMS) + r.checkpoints
	failed = r.checkpointFailures
	if !r.plan.Active() {
		failed += r.queriesUnanswered + r.quality.blindUnanswered
	}
	return attempted, failed
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// endToEnd is what a user of the system sees. Times are scaled to the
// reference host's speed (speed.go); the record keeps the wall times.
func (r *runner) endToEnd() map[string]metric {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	step := r.scaled(r.stepMS, r.stepK)
	query := r.scaled(r.queryMS, r.queryK)
	return map[string]metric{
		"setup_s":           {median(r.scaled(r.setupS, r.setupK)), "s"},
		"step_ms_p50":       {quantile(step, 0.5), "ms"},
		"step_ms_p90":       {quantile(step, 0.9), "ms"},
		"steps_per_s":       {float64(len(step)) / (sum(step) / 1e3), "1/s"},
		"query_ms_p50":      {quantile(query, 0.5), "ms"},
		"query_ms_p90":      {quantile(query, 0.9), "ms"},
		"queries_per_s":     {float64(len(query)) / (sum(r.scaled(r.batchMS, r.batchK)) / 1e3), "1/s"},
		"peak_rss_mb":       {float64(ru.Maxrss) / 1024, "MB"},
		"traffic_reduction": {r.quality.trafficReduction, "ratio"},
		"response_ratio":    {r.quality.responseRatio, "ratio"},
		"scope_retention":   {r.quality.scopeRetention, "ratio"},
	}
}

// perLayer attributes the traced steps to layers and reports the work
// counts that explain them.
func (r *runner) perLayer() map[string]metric {
	self, total, stepNanos, residual, traced := r.trace.layerTimes()
	perStep := func(ns int64) float64 { return float64(ns) / 1e6 / float64(traced) }
	m := map[string]metric{
		"overlay.churn_ms":     {perStep(total["overlay.churn"]), "ms"},
		"core.round_ms":        {perStep(total["core.round"]), "ms"},
		"core.sync_ms":         {perStep(total["core.sync"]), "ms"},
		"gnutella.batch_ms":    {perStep(total["gnutella.query_batch"]), "ms"},
		"snap.capture_ms":      {perStep(total["snap.capture"]), "ms"},
		"snap.save_ms":         {perStep(total["snap.save"]), "ms"},
		"obs.emit_ms":          {perStep(total["obs.emit"]), "ms"},
		"obs.flight_note_ms":   {perStep(total["obs.flight_note"]), "ms"},
		"residual_ms":          {perStep(residual), "ms"},
		"trace.step_ms":        {perStep(stepNanos), "ms"},
		"trace.untraced_ms":    {mean(r.untracedMS), "ms"},
		"trace.overhead_pct":   {100 * (mean(r.tracedMS)/mean(r.untracedMS) - 1), "%"},
		"physical.warm_s":      {median(r.warmS), "s"},
		"physical.dijkstras":   {float64(r.oracle.dijkstras) / float64(r.epochs), "count"},
		"physical.hit_ratio":   {1 - float64(r.oracle.dijkstras)/float64(r.oracle.queries), "ratio"},
		"snap.bytes":           {float64(r.snapBytes), "bytes"},
		"go.alloc_mb_per_step": {r.goAllocMB, "MB"},
		"go.gc_per_step":       {r.goGC, "count"},
		"core.peers_rebuilt":   {float64(r.rebuilt) / float64(len(r.stepMS)), "count"},
	}
	bySelf := moduleSelf(self)
	for _, mod := range []string{"overlay", "core", "gnutella", "snap", "obs"} {
		m["self."+mod+"_ms"] = metric{perStep(bySelf[mod]), "ms"}
	}

	var rebuild, phase3, merge, minRepair, imbalance float64
	var hits, fallbacks, segments, serial, repl, probes, timeouts, purged int
	for _, rep := range r.reps {
		rebuild += float64(rep.RebuildNanos) / 1e6
		phase3 += float64(rep.Phase3Nanos) / 1e6
		merge += float64(rep.MergeNanos) / 1e6
		minRepair += float64(rep.RepairNanos) / 1e6
		imbalance += math.Max(0, math.Max(rep.ShardImbalance, rep.ProposeImbalance))
		hits += rep.RepairHits
		fallbacks += rep.RepairFallbacks
		segments += rep.MergeSegments
		serial += rep.MergeSerialFallbacks
		repl += rep.Replacements
		probes += rep.Probes
		timeouts += rep.ProbeTimeouts
		purged += rep.PurgedEdges
	}
	n := float64(len(r.reps))
	m["core.rebuild_ms"] = metric{rebuild / n, "ms"}
	m["core.phase3_ms"] = metric{phase3 / n, "ms"}
	m["core.merge_ms"] = metric{merge / n, "ms"}
	m["core.minrepair_ms"] = metric{minRepair / n, "ms"}
	m["core.shard_imbalance"] = metric{imbalance / n, "ratio"}
	m["core.repair_hit_ratio"] = metric{ratio(hits, hits+fallbacks), "ratio"}
	m["core.merge_serial_ratio"] = metric{ratio(serial, segments), "ratio"}
	m["core.replacements"] = metric{float64(repl) / n, "count"}
	m["core.probes"] = metric{float64(probes) / n, "count"}
	m["core.probe_timeouts"] = metric{float64(timeouts) / n, "count"}
	m["core.purged_edges"] = metric{float64(purged) / n, "count"}

	q := r.aceQueries
	m["gnutella.sends_per_query"] = metric{float64(q.transmissions) / float64(q.n), "count"}
	m["gnutella.useful_send_ratio"] = metric{ratio(q.scope-q.n, q.transmissions), "ratio"}
	m["gnutella.lost_per_query"] = metric{float64(q.lost) / float64(q.n), "count"}
	m["gnutella.blind_query_ms"] = metric{mean(r.quality.blindMS), "ms"}
	m["gnutella.query_ms_p99"] = metric{quantile(r.queryMS, 0.99), "ms"}
	m["gnutella.unanswered_ratio"] = metric{ratio(r.queriesUnanswered+r.quality.blindUnanswered, r.queriesRun+len(r.quality.blindMS)), "ratio"}
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// record describes the host, the inputs and the run's determinism
// evidence; it precedes the result line.
func (r *runner) record(seconds float64) map[string]any {
	w := r.w
	return map[string]any{
		"host": map[string]any{
			"cpu": cpuModel(), "cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
		},
		"input": map[string]any{
			"workload": w.name, "seed": r.seed, "seconds": seconds,
			"peers": w.peers, "physical_nodes": w.phys, "degree": w.degree, "depth": w.depth,
			"shards": w.shards, "churn_per_step": w.churn, "crash_fraction": w.plan.CrashFraction,
			"loss": w.plan.LossRate, "probe_timeout": w.plan.ProbeTimeoutRate, "connect_fail": w.plan.ConnectFailRate,
			"queries_per_step": w.queries, "clients": clients, "service": w.service,
			"priming_rounds": primingRounds, "steps_per_epoch": w.steps, "min_epochs": w.epochs, "digest_step": w.digest, "sample": w.sample,
		},
		"epochs":             r.epochs,
		"steps":              len(r.stepMS),
		"queries":            r.queriesRun,
		"unanswered_queries": r.queriesUnanswered,
		"blind_unanswered":   r.quality.blindUnanswered,
		"checkpoints":        r.checkpoints,
		"digest":             r.digest,
		"wall": map[string]float64{
			"setup_s": median(r.setupS), "step_ms_p50": quantile(r.stepMS, 0.5), "query_ms_p50": quantile(r.queryMS, 0.5),
			"ref_kernel_ms": median(r.refMS),
		},
		"quality": map[string]float64{
			"traffic_reduction": r.quality.trafficReduction,
			"response_ratio":    r.quality.responseRatio,
			"scope_retention":   r.quality.scopeRetention,
		},
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

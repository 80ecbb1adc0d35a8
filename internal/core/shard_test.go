package core

import (
	"reflect"
	"testing"
	"time"

	"ace/internal/fault"
	"ace/internal/overlay"
)

// requireSameRound drives one identically seeded churn+round step on both
// sides and fails on any divergence in report, per-peer state, or edges.
func requireSameRound(t *testing.T, r int, a, b *diffSide, la, lb string) {
	t.Helper()
	a.churnStep(2)
	b.churnStep(2)
	ra := stripTiming(a.opt.Round(a.round))
	rb := stripTiming(b.opt.Round(b.round))
	if ra != rb {
		t.Fatalf("round %d: reports diverged\n%s: %+v\n%s: %+v", r, la, ra, lb, rb)
	}
	requireSameStates(t, r, a.opt, b.opt, a.net.N())
	requireSameEdges(t, r, a.net, b.net)
}

// TestShardedDeterministicAcrossShardCounts is the round engine's
// determinism proof: it must produce bit-identical trajectories —
// every StepReport field including the float traffic sums, every
// PeerState, every overlay edge — at every shard count, regardless of
// goroutine schedule. Shard counts cover zero (the default, which runs
// one shard inline), powers of two, and a non-power-of-two that leaves
// uneven owner ranges, each against the single-shard run. Run under
// -race in CI.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	const seed = 20260808
	const rounds = 60
	for _, shards := range []int{0, 2, 5, 8} {
		t.Run(shardLabel(shards), func(t *testing.T) {
			oneCfg := DefaultConfig(2)
			oneCfg.Shards = 1
			manyCfg := DefaultConfig(2)
			manyCfg.Shards = shards

			one := newDiffSide(t, seed, oneCfg)
			many := newDiffSide(t, seed, manyCfg)
			for r := 0; r < rounds; r++ {
				requireSameRound(t, r, one, many, "shards=1", shardLabel(shards))
			}
		})
	}
}

func shardLabel(s int) string {
	return "shards=" + string(rune('0'+s))
}

// TestShardedDeterministicUnderFaults repeats the cross-shard-count
// determinism proof with a fault injector active: probe timeouts and
// dial failures drive the sharded Phase-1 sweep's retry/staleness
// machinery and the blacklist, and none of it may depend on the shard
// layout.
func TestShardedDeterministicUnderFaults(t *testing.T) {
	const seed = 20260809
	const rounds = 50
	plan := fault.Plan{ProbeTimeoutRate: 0.15, ConnectFailRate: 0.1, Seed: 99}
	for _, shards := range []int{0, 2, 5, 8} {
		t.Run(shardLabel(shards), func(t *testing.T) {
			oneCfg := DefaultConfig(2)
			oneCfg.Shards = 1
			manyCfg := DefaultConfig(2)
			manyCfg.Shards = shards

			one := newDiffSide(t, seed, oneCfg)
			many := newDiffSide(t, seed, manyCfg)
			one.net.SetFaults(newInjector(t, plan))
			many.net.SetFaults(newInjector(t, plan))
			for r := 0; r < rounds; r++ {
				requireSameRound(t, r, one, many, "shards=1", shardLabel(shards))
			}
		})
	}
}

// TestParallelMergeProperty is the parallel merge's property test: at
// shard counts {1, 2, 5, 8}, 65 churn rounds under fault injection run
// twice with the same seed — once through the conflict-partitioned
// parallel apply, once with forceSerialMerge pinning the stream-order
// serial apply — and the two trajectories must match bit for bit
// (reports including float traffic sums, per-peer states, edges).
// Alongside, every parallel-side report must conserve its tallies:
// accepted rewires cannot exceed probes, serial fallbacks cannot exceed
// segments, segments cannot exceed probes, and the single-shard engine
// must never segment at all. Runs under -race in CI, where the
// conflict-partition claims discipline is also exercised for data races.
func TestParallelMergeProperty(t *testing.T) {
	const seed = 20260815
	const rounds = 65
	plan := fault.Plan{ProbeTimeoutRate: 0.12, ConnectFailRate: 0.08, Seed: 7}
	for _, shards := range []int{1, 2, 5, 8} {
		t.Run(shardLabel(shards), func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.Shards = shards

			par := newDiffSide(t, seed, cfg)
			ser := newDiffSide(t, seed, cfg)
			ser.opt.forceSerialMerge = true
			par.net.SetFaults(newInjector(t, plan))
			ser.net.SetFaults(newInjector(t, plan))
			for r := 0; r < rounds; r++ {
				par.churnStep(2)
				ser.churnStep(2)
				rp := par.opt.Round(par.round)
				rs := ser.opt.Round(ser.round)
				if stripTiming(rp) != stripTiming(rs) {
					t.Fatalf("round %d: parallel and serial merge diverged\nparallel: %+v\nserial:   %+v",
						r, rp, rs)
				}
				requireSameStates(t, r, par.opt, ser.opt, par.net.N())
				requireSameEdges(t, r, par.net, ser.net)

				if rp.Replacements+rp.KeptNew > rp.Probes {
					t.Fatalf("round %d: %d accepted rewires exceed %d probes",
						r, rp.Replacements+rp.KeptNew, rp.Probes)
				}
				if rp.MergeSerialFallbacks > rp.MergeSegments {
					t.Fatalf("round %d: %d serial fallbacks exceed %d segments",
						r, rp.MergeSerialFallbacks, rp.MergeSegments)
				}
				if rp.MergeSegments > rp.Probes {
					t.Fatalf("round %d: %d segments exceed %d probes", r, rp.MergeSegments, rp.Probes)
				}
				if shards == 1 && rp.MergeSegments != 0 {
					t.Fatalf("round %d: single-shard engine reported %d segments", r, rp.MergeSegments)
				}
				if rp.ProposeImbalance < 0 || rp.ShardImbalance < 0 {
					t.Fatalf("round %d: negative imbalance %+v", r, rp)
				}
			}
		})
	}
}

// TestShardedRepeatRunsIdentical runs the same sharded configuration
// twice end to end: with the goroutine schedule as the only source of
// variation between the runs, any divergence means a schedule dependency
// leaked into the protocol.
func TestShardedRepeatRunsIdentical(t *testing.T) {
	const seed = 20260810
	const rounds = 40
	cfg := DefaultConfig(2)
	cfg.Shards = 8
	a := newDiffSide(t, seed, cfg)
	b := newDiffSide(t, seed, cfg)
	for r := 0; r < rounds; r++ {
		a.churnStep(2)
		b.churnStep(2)
		ra := a.opt.Round(a.round)
		rb := b.opt.Round(b.round)
		if stripTiming(ra) != stripTiming(rb) {
			t.Fatalf("round %d: repeat runs diverged\nfirst:  %+v\nsecond: %+v", r, ra, rb)
		}
		requireSameStates(t, r, a.opt, b.opt, a.net.N())
		requireSameEdges(t, r, a.net, b.net)
	}
}

// TestStepReportNanosAreWallClock pins the satellite fix: with per-shard
// work fanned out across goroutines, a naive sum of per-shard spans
// would report aggregate CPU time. StepReport's phase nanos must instead
// be wall-clock — each phase span wraps the whole fan-out — so their sum
// can never exceed the measured wall-clock time of the round.
func TestStepReportNanosAreWallClock(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Shards = 8
	s := newDiffSide(t, 20260812, cfg)
	for r := 0; r < 10; r++ {
		s.churnStep(2)
		start := time.Now()
		rep := s.opt.Round(s.round)
		elapsed := time.Since(start).Nanoseconds()
		phases := rep.RebuildNanos + rep.Phase3Nanos + rep.RepairNanos
		if phases > elapsed {
			t.Fatalf("round %d: phase nanos %d exceed wall-clock %d — aggregate CPU time leaked in",
				r, phases, elapsed)
		}
		if rep.MergeNanos > rep.Phase3Nanos {
			t.Fatalf("round %d: merge %dns exceeds its enclosing phase3 %dns",
				r, rep.MergeNanos, rep.Phase3Nanos)
		}
		if rep.Shards != 8 {
			t.Fatalf("round %d: report carries Shards=%d, want 8", r, rep.Shards)
		}
	}
}

// TestShardsGOMAXPROCS pins the -1 convention: the engine resolves the
// shard count at round time and stamps it into the report.
func TestShardsGOMAXPROCS(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Shards = -1
	s := newDiffSide(t, 20260813, cfg)
	rep := s.opt.Round(s.round)
	if rep.Shards < 1 {
		t.Fatalf("Shards=-1 round reported %d shards", rep.Shards)
	}
}

// TestRevIndexPostings unit-tests the compressed reverse index: postings
// survive compaction, generation bumps invalidate, and forEach visits
// base postings in ascending holder order.
func TestRevIndexPostings(t *testing.T) {
	var ri revIndex
	ri.ensure(16)

	st := func(members ...overlay.PeerID) *PeerState {
		s := &PeerState{Closure: members, depth: make([]int32, len(members))}
		return s
	}
	// Three holders posting under member 3; holder 9's closure also has
	// member 5.
	ri.add(7, st(3), 0)
	ri.add(2, st(3), 0)
	ri.add(9, st(3, 5), 0)

	collect := func(m overlay.PeerID) []overlay.PeerID {
		var got []overlay.PeerID
		ri.forEach(m, func(p overlay.PeerID, interior bool) {
			if !interior {
				t.Fatalf("interiorMax 0 with depth 0 must flag interior")
			}
			got = append(got, p)
		})
		return got
	}
	if got := collect(3); len(got) != 3 {
		t.Fatalf("member 3 postings = %v, want 3 holders", got)
	}

	// Drop holder 2 and compact: its posting must vanish, the rest must
	// survive in ascending base order.
	ri.drop(2, st(3))
	ri.compact()
	if got := collect(3); !reflect.DeepEqual(got, []overlay.PeerID{7, 9}) {
		t.Fatalf("post-compact member 3 postings = %v, want [7 9]", got)
	}
	if got := collect(5); !reflect.DeepEqual(got, []overlay.PeerID{9}) {
		t.Fatalf("post-compact member 5 postings = %v, want [9]", got)
	}
	if ri.live != 3 || ri.total != 3 {
		t.Fatalf("post-compact live/total = %d/%d, want 3/3", ri.live, ri.total)
	}

	// A generation bump after compaction hides base postings without a
	// rewrite.
	ri.drop(9, st(3, 5))
	if got := collect(3); !reflect.DeepEqual(got, []overlay.PeerID{7}) {
		t.Fatalf("post-drop member 3 postings = %v, want [7]", got)
	}
	if got := collect(5); got != nil {
		t.Fatalf("post-drop member 5 postings = %v, want none", got)
	}
}

// TestOwnerSpansPartition pins the shard-ownership rule: spans are
// contiguous, cover the list exactly, and each peer lands in the shard
// owning its id range.
func TestOwnerSpansPartition(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Shards = 5
	s := newDiffSide(t, 20260814, cfg)
	list := s.net.AlivePeersAppend(nil)
	spans := s.opt.ownerSpans(list, 5)
	c := (s.net.N() + 4) / 5
	prev := 0
	for k, sp := range spans {
		if sp[0] != prev {
			t.Fatalf("shard %d span starts at %d, want %d (spans must be contiguous)", k, sp[0], prev)
		}
		for _, p := range list[sp[0]:sp[1]] {
			if int(p)/c != k {
				t.Fatalf("peer %d in shard %d, owner is %d", p, k, int(p)/c)
			}
		}
		prev = sp[1]
	}
	if prev != len(list) {
		t.Fatalf("spans cover %d of %d peers", prev, len(list))
	}
}

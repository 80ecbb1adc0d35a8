package core

import (
	"fmt"
	"reflect"
	"testing"

	"ace/internal/fault"
	"ace/internal/obs/tracer"
)

// TestTraceEnabledDoesNotPerturb pins the causal tracer's core
// contract: recording a trace changes nothing but the trace. Two
// identically seeded systems run the same churn workload — one with
// the tracer recording, one with it off — and every StepReport
// (timing stripped) and every overlay edge must agree bit for bit.
// The matrix covers one shard and eight, clean and under fault
// injection, because each combination exercises different
// instrumentation sites (inline sweep vs shard fan-outs, probe
// retries, blacklists, crash purges).
func TestTraceEnabledDoesNotPerturb(t *testing.T) {
	const seed = 177
	const rounds = 60

	for _, shards := range []int{1, 8} {
		for _, faulty := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/faults=%v", shards, faulty)
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig(1)
				cfg.Shards = shards

				run := func(traced bool) (reports []StepReport, edges any) {
					if traced {
						tracer.Enable(1 << 12)
						defer tracer.Disable()
					} else {
						tracer.Disable()
					}
					s := newDiffSide(t, seed, cfg)
					if faulty {
						s.net.SetFaults(newInjector(t, fault.Plan{
							Seed:             seed,
							LossRate:         0.05,
							ProbeTimeoutRate: 0.05,
							ConnectFailRate:  0.05,
						}))
					}
					for r := 0; r < rounds; r++ {
						s.churnStep(2)
						reports = append(reports, stripTiming(s.opt.Round(s.round)))
					}
					return reports, s.net.SnapshotEdges()
				}

				offReports, offEdges := run(false)
				onReports, onEdges := run(true)

				for r := range offReports {
					if offReports[r] != onReports[r] {
						t.Fatalf("round %d: traced report diverged\noff: %+v\non:  %+v",
							r, offReports[r], onReports[r])
					}
				}
				if !reflect.DeepEqual(offEdges, onEdges) {
					t.Fatal("traced run produced a different overlay")
				}
			})
		}
	}
}

package physical

import (
	"fmt"
	"testing"

	"ace/internal/graph"
	"ace/internal/sim"
	"ace/internal/topology"
)

// benchGraph is a 2048-node ring with chords — cheap to build, nontrivial
// shortest paths.
func benchGraph() *graph.Graph {
	const n = 2048
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
		g.AddEdge(i, (i+37)%n, 5)
	}
	return g
}

// BenchmarkDelayWarmSerial is the single-goroutine baseline for warmed
// cache hits.
func BenchmarkDelayWarmSerial(b *testing.B) {
	o := NewOracle(benchGraph(), 0)
	sources := make([]int, 512)
	for i := range sources {
		sources[i] = i * 4
	}
	o.Warm(sources, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Delay(sources[i%512], sources[(i*7+3)%512])
	}
}

// BenchmarkDelayWarmParallel drives concurrent Delay lookups against a
// warmed cache — the rebuild workers' access pattern. With the RLock fast
// path and atomic counters, throughput should scale with readers instead
// of serializing on the mutex.
func BenchmarkDelayWarmParallel(b *testing.B) {
	o := NewOracle(benchGraph(), 0)
	sources := make([]int, 512)
	for i := range sources {
		sources[i] = i * 4
	}
	o.Warm(sources, 0)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			o.Delay(sources[i%512], sources[(i*7+3)%512])
			i++
		}
	})
	if st := o.Stats(); st.Queries == 0 {
		b.Fatal("stats counters not advancing")
	}
}

// BenchmarkVectorFill times one cold per-source distance-vector fill on
// the default BA substrate, the unit of the oracle's set-up cost (the
// DelayWarm benchmarks above time only cache hits). The one-vector cache
// makes every Vector call a miss without retaining n vectors.
func BenchmarkVectorFill(b *testing.B) {
	for _, n := range []int{2000, 5000} {
		b.Run(fmt.Sprintf("ba%d", n), func(b *testing.B) {
			phys, err := topology.GenerateBA(sim.NewRNG(7), topology.DefaultBASpec(n))
			if err != nil {
				b.Fatal(err)
			}
			o := NewOracle(phys.Graph, 1)
			o.Vector(n - 1) // derive the bucket width outside the timed loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Vector(i % (n - 1))
			}
		})
	}
}

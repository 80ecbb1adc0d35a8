package gnutella

import (
	"fmt"
	"testing"

	"ace/internal/core"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// benchNet builds the §4.1 environment at bench size: a BA physical
// topology of nPhys nodes, a small-world logical overlay of nPeers, and
// an optimizer with rebuilt trees — the substrate every per-query
// benchmark floods.
func benchNet(b *testing.B, nPeers, nPhys, h int) (*overlay.Network, *core.Optimizer) {
	b.Helper()
	rng := sim.NewRNG(1)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(nPhys))
	if err != nil {
		b.Fatal(err)
	}
	oracle := physical.NewOracle(phys.Graph, 0)
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), nPhys, nPeers)
	if err != nil {
		b.Fatal(err)
	}
	net, err := overlay.NewNetwork(oracle, attach)
	if err != nil {
		b.Fatal(err)
	}
	if err := overlay.GenerateSmallWorld(rng.Derive("overlay"), net, 8, 0.6); err != nil {
		b.Fatal(err)
	}
	opt, err := core.NewOptimizer(net, core.DefaultConfig(h))
	if err != nil {
		b.Fatal(err)
	}
	opt.RebuildTrees()
	return net, opt
}

func benchResponders(net *overlay.Network, k int) map[overlay.PeerID]bool {
	rng := sim.NewRNG(99)
	alive := net.AlivePeers()
	responders := make(map[overlay.PeerID]bool, k)
	for len(responders) < k {
		responders[alive[rng.Intn(len(alive))]] = true
	}
	return responders
}

// BenchmarkEvaluate measures the closed-form flood evaluator — the inner
// loop of every §4.2 data point — per query, over both forwarders: at
// 1,000 peers on 3,000 physical nodes, and at the scale of the step
// benchmark's query-serving workload (5,000 peers on 5,000 nodes, h=1).
func BenchmarkEvaluate(b *testing.B) {
	const ttl = 1 << 20
	for _, sz := range []struct{ peers, phys int }{{1000, 3000}, {5000, 5000}} {
		net, opt := benchNet(b, sz.peers, sz.phys, 1)
		alive := net.AlivePeers()
		responders := benchResponders(net, 8)
		for _, fwd := range []core.Forwarder{core.BlindFlooding{Net: net}, core.TreeForwarding{Opt: opt}} {
			name := "BlindFlooding"
			if _, ok := fwd.(core.TreeForwarding); ok {
				name = "TreeForwarding"
			}
			b.Run(fmt.Sprintf("%s/n%d", name, sz.peers), func(b *testing.B) {
				Evaluate(net, fwd, alive[0], ttl, responders) // warm oracle cache
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Evaluate(net, fwd, alive[i%len(alive)], ttl, responders)
				}
			})
		}
	}
}

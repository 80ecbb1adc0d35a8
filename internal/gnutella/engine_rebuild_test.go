package gnutella

import (
	"fmt"
	"testing"
	"time"

	"ace/internal/core"
	"ace/internal/overlay"
	"ace/internal/sim"
)

// TestEngineFloodAcrossRebuild pins message-level ACE floods whose
// deliveries straddle churn, an optimizer round and a tree rebuild. The
// messages carry tree views over the launchers' PeerState slabs, and a
// sharded rebuild at h = 1 recycles the slabs of replaced states, so
// these are the floods in which a view could read another state's tree.
// The figures were recorded with launches that copied their pruned
// trees, on the one-shard engine, which recycles nothing; the two-shard
// run must match them, since the trajectory does not depend on the
// shard count.
func TestEngineFloodAcrossRebuild(t *testing.T) {
	want := []string{
		"scope=253 tx=893 dup=641 dropped=0 traffic=15633.134408 first=122.503386 resp=5",
		"scope=214 tx=521 dup=308 dropped=0 traffic=8854.435353 first=119.654158 resp=3",
		"scope=269 tx=1143 dup=872 dropped=3 traffic=17949.370847 first=77.077678 resp=6",
		"scope=249 tx=913 dup=665 dropped=0 traffic=13475.025955 first=74.259854 resp=4",
		"scope=224 tx=711 dup=487 dropped=1 traffic=10126.338748 first=159.140520 resp=2",
		"scope=230 tx=721 dup=490 dropped=2 traffic=10076.477104 first=88.112098 resp=4",
	}
	for _, shards := range []int{1, 2} {
		net, _ := buildACENet(t, 131, 300, 8, 1, 0)
		cfg := core.DefaultConfig(1)
		cfg.Shards = shards
		opt, err := core.NewOptimizer(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(132)
		for i := 0; i < 3; i++ {
			opt.Round(rng)
		}
		s := sim.NewEngine()
		eng := NewEngine(s, net, core.TreeForwarding{Opt: opt})
		responders := map[overlay.PeerID]bool{}
		for len(responders) < 6 {
			responders[overlay.PeerID(rng.Intn(net.N()))] = true
		}
		for i, w := range want {
			alive := net.AlivePeers()
			src := alive[rng.Intn(len(alive))]
			qs := eng.InjectQuery(src, DefaultTTL, 0, func(p overlay.PeerID, _ int) bool { return responders[p] })
			// Mid-flight: churn a few peers, run a round and rebuild
			// every tree while the flood's messages are still queued.
			s.After(time.Duration(20+15*i)*time.Millisecond, func() {
				for j := 0; j < 3; j++ {
					alive := net.AlivePeers()
					net.Leave(alive[rng.Intn(len(alive))])
				}
				opt.Round(rng)
				opt.RebuildTrees()
			})
			s.Run()
			got := fmt.Sprintf("scope=%d tx=%d dup=%d dropped=%d traffic=%.6f first=%.6f resp=%d",
				qs.Scope, qs.Transmissions, qs.Duplicates, qs.Dropped, qs.TrafficCost, qs.FirstResponse, qs.Responses)
			if got != w {
				t.Errorf("shards=%d query %d:\n got %s\nwant %s", shards, i, got, w)
			}
		}
	}
}

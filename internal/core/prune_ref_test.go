package core

import (
	"testing"

	"ace/internal/overlay"
	"ace/internal/sim"
)

// refPruneTree is the launch pruning the masked views replaced: it keeps
// the branches of st's tree that reach at least one target position and
// copies them into a fresh CSR adjacency with members sorted by id,
// returning it plus the root's position within it.
func refPruneTree(st *PeerState, targets []int32) (*TreeAdj, int32) {
	s := len(st.Closure)
	keep := make([]bool, s)
	keep[0] = true
	kept := []int32{0}
	for _, pi := range targets {
		for w := pi; !keep[w]; w = st.parentPos[w] {
			keep[w] = true
			kept = append(kept, w)
		}
	}

	// The walks collect the kept set unordered; an insertion sort by id
	// restores the ascending-member order of the CSR format.
	keys := make([]uint64, len(kept))
	for i, v := range kept {
		keys[i] = uint64(uint32(st.Closure[v]))<<32 | uint64(uint32(v))
	}
	for i := 1; i < len(keys); i++ {
		kv := keys[i]
		j := i - 1
		for j >= 0 && keys[j] > kv {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = kv
	}
	for i, kv := range keys {
		kept[i] = int32(uint32(kv))
	}
	k := len(kept)
	// The kept set is a union of root paths, hence a connected subtree:
	// its induced adjacency is exactly the k-1 tree edges, both ways.
	total := 2 * (k - 1)

	posInKept := make([]int32, s)
	rootPos := int32(0)
	for i, pi := range kept {
		posInKept[pi] = int32(i)
		if pi == 0 {
			rootPos = int32(i)
		}
	}

	nodes := make([]overlay.PeerID, k)
	byID := make([]int32, k) // members are sorted: positions are id order
	off := make([]int32, k+1)
	adj := make([]overlay.PeerID, total)
	adjPos := make([]int32, total)
	var cost []float32
	if st.treeCost != nil {
		cost = make([]float32, total)
	}
	w := 0
	for i, pi := range kept {
		nodes[i] = st.Closure[pi]
		byID[i] = int32(i)
		off[i] = int32(w)
		b := st.treeOff[pi]
		for j, c := range st.treeAdjPos[b:st.treeOff[pi+1]] {
			if keep[c] {
				adj[w] = st.treeAdj[b+int32(j)]
				adjPos[w] = posInKept[c]
				if cost != nil {
					cost[w] = st.treeCost[b+int32(j)]
				}
				w++
			}
		}
	}
	off[k] = int32(w)
	return &TreeAdj{nodes: nodes, byID: byID, off: off, adj: adj, adjPos: adjPos, cost: cost}, rootPos
}

// refForwardInto is TreeForwarding.ForwardInto with launches pruned by
// refPruneTree: same election, copied subtrees instead of masked views.
func refForwardInto(t TreeForwarding, sc *FloodScratch, out []Send, src, p, from, serving overlay.PeerID, servingAdj *TreeAdj, pPos int32, covered *CoveredSet, first bool) []Send {
	own := t.Opt.State(p)
	if own == nil {
		return BlindFlooding{Net: t.Opt.Network()}.ForwardInto(sc, out, src, p, from, serving, servingAdj, pPos, covered, first)
	}
	net := t.Opt.Network()
	if serving != NoTree && serving != p {
		out = appendTreeSends(sc, net, out, servingAdj, pPos, serving, covered, from, true)
	}
	if !first {
		return out
	}
	adj, rootPos := own.FullTree(), int32(0)
	if !covered.Empty() {
		targets := t.launchTargets(sc, own, p, covered)
		if len(targets) == 0 {
			return out
		}
		if len(targets) < len(own.Closure)-1 {
			adj, rootPos = refPruneTree(own, targets)
		}
	}
	return appendTreeSends(sc, net, out, adj, rootPos, p, covered.extend(adj), from, false)
}

// maskedVsCopied floods one query from src twice in lockstep — with the
// production forwarder (masked launch views, arena armed) and with
// refForwardInto (copied subtrees) — and fails unless every delivery
// yields the same sends (To, Cost, Tree, in order) and every launch the
// same member set and covered set. Deliveries run in FIFO order with
// the kernels' first-copy and per-(peer, tree) dedup rules. It returns
// the number of masked launches and of splice sends seen.
func maskedVsCopied(t *testing.T, fwd TreeForwarding, scP, scR *FloodScratch, src overlay.PeerID) (masked, spliced int) {
	t.Helper()
	type msg struct {
		to, from, serving overlay.PeerID
		adjP, adjR        *TreeAdj
		posP, posR        int32
		covP, covR        *CoveredSet
	}
	n := fwd.Opt.Network().N()
	scP.BeginQuery()
	var cmpP, cmpR FloodScratch
	checked := map[*CoveredSet]bool{}
	visited := map[overlay.PeerID]bool{src: true}
	served := map[[2]overlay.PeerID]bool{}
	var queue []msg
	emit := func(from overlay.PeerID, sendsP, sendsR []Send) {
		if len(sendsP) != len(sendsR) {
			t.Fatalf("src %d: peer %d sends %d copies, reference %d", src, from, len(sendsP), len(sendsR))
		}
		for i, sp := range sendsP {
			sr := sendsR[i]
			if sp.To != sr.To || sp.Cost != sr.Cost || sp.Tree != sr.Tree {
				t.Fatalf("src %d: peer %d send %d = (%d, %v, tree %d), reference (%d, %v, tree %d)",
					src, from, i, sp.To, sp.Cost, sp.Tree, sr.To, sr.Cost, sr.Tree)
			}
			if sp.Tree != NoTree && sp.Cost < 0 {
				spliced++
			}
			if sp.Tree != from || checked[sp.Covered] {
				continue
			}
			// A launch of from's own tree: compare members and coverage.
			checked[sp.Covered] = true
			if sp.Adj.keep != nil {
				masked++
			}
			if sp.Adj.Len() != sr.Adj.Len() {
				t.Fatalf("src %d: launch of %d has %d members, reference %d", src, from, sp.Adj.Len(), sr.Adj.Len())
			}
			cmpP.materializeCover(sp.Covered, n)
			cmpR.materializeCover(sr.Covered, n)
			for x := overlay.PeerID(0); int(x) < n; x++ {
				if sp.Adj.Contains(x) != sr.Adj.Contains(x) {
					t.Fatalf("src %d: launch of %d: member %d differs", src, from, x)
				}
				if cmpP.cover.has(x) != cmpR.cover.has(x) {
					t.Fatalf("src %d: launch of %d: covered %d differs", src, from, x)
				}
			}
		}
		// The served marks land after the batch: distinct runs in one
		// batch carry distinct trees, as the kernel's Emit relies on.
		batch := map[overlay.PeerID]bool{}
		for i, sp := range sendsP {
			if sp.Tree != NoTree && served[[2]overlay.PeerID{from, sp.Tree}] {
				continue
			}
			batch[sp.Tree] = true
			sr := sendsR[i]
			queue = append(queue, msg{to: sp.To, from: from, serving: sp.Tree,
				adjP: sp.Adj, adjR: sr.Adj, posP: sp.ToPos, posR: sr.ToPos, covP: sp.Covered, covR: sr.Covered})
		}
		for tree := range batch {
			if tree != NoTree {
				served[[2]overlay.PeerID{from, tree}] = true
			}
		}
	}
	var outP, outR []Send
	outP = fwd.ForwardInto(scP, outP[:0], src, src, -1, NoTree, nil, -1, nil, true)
	outR = refForwardInto(fwd, scR, outR[:0], src, src, -1, NoTree, nil, -1, nil, true)
	emit(src, outP, outR)
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		if !fwd.Opt.Network().Alive(m.to) {
			continue
		}
		first := !visited[m.to]
		visited[m.to] = true
		if !first && (m.serving == NoTree || served[[2]overlay.PeerID{m.to, m.serving}]) {
			continue
		}
		outP = fwd.ForwardInto(scP, outP[:0], src, m.to, m.from, m.serving, m.adjP, m.posP, m.covP, first)
		outR = refForwardInto(fwd, scR, outR[:0], src, m.to, m.from, m.serving, m.adjR, m.posR, m.covR, first)
		emit(m.to, outP, outR)
	}
	return masked, spliced
}

// TestMaskedLaunchesMatchCopiedSubtrees is the differential test of the
// masked launch views against the copied-subtree pruning they replaced:
// floods at h = 1, 2 and 3, on the clean network and after 10% of the
// peers leave without a rebuild (so relays splice around dead tree
// members), must produce identical sends and covered sets at every
// delivery. One production scratch serves every flood, so the arena's
// chunk recycling across queries is exercised too.
func TestMaskedLaunchesMatchCopiedSubtrees(t *testing.T) {
	for _, h := range []int{1, 2, 3} {
		net := randomNet(t, int64(160+h), 600, 300, 6)
		o := newOpt(t, net, h)
		o.Round(sim.NewRNG(int64(170 + h)))
		o.RebuildTrees()
		fwd := TreeForwarding{Opt: o}
		var scP, scR FloodScratch
		rng := sim.NewRNG(int64(180 + h))
		for _, churned := range []bool{false, true} {
			if churned {
				alive := net.AlivePeers()
				for i := 0; i < len(alive)/10; i++ {
					net.Leave(alive[rng.Intn(len(alive))])
				}
			}
			masked, spliced := 0, 0
			for q := 0; q < 6; q++ {
				alive := net.AlivePeers()
				m, s := maskedVsCopied(t, fwd, &scP, &scR, alive[rng.Intn(len(alive))])
				masked += m
				spliced += s
			}
			if masked == 0 {
				t.Fatalf("h=%d churned=%v: no masked launch was exercised", h, churned)
			}
			if churned && spliced == 0 {
				t.Fatalf("h=%d: no splice send was exercised after churn", h)
			}
		}
	}
}

package core

import (
	"math/bits"
	"slices"
	"sync"

	"ace/internal/overlay"
)

// TreeAdj is the adjacency of one multicast tree, as carried by the
// query messages serving it. Launched trees are pruned to the branches
// that reach peers earlier trees did not already cover, so the structure
// may describe a subtree of the owner's full tree.
//
// Every TreeAdj is a view over its owner's PeerState CSR slabs — a
// member list in closure order, prefix offsets, one concatenated,
// per-bucket-sorted neighbor array and its position mirror — so
// traversals never translate ids back to positions and nothing is
// copied. A pruned launch adds a keep bitmask over closure positions;
// unkept positions are simply skipped by every traversal, which leaves
// the kept members' buckets in the same ascending order a copied
// subtree would have. Messages share one *TreeAdj per launch.
type TreeAdj struct {
	// nodes lists the member ids in closure order; byID holds the
	// positions ordered by id.
	nodes []overlay.PeerID
	byID  []int32
	// off[i]:off[i+1] brackets nodes[i]'s neighbors within adj.
	off []int32
	// adj is the concatenated neighbor lists, each sorted ascending.
	adj []overlay.PeerID
	// adjPos mirrors adj with member positions, so walking the tree from
	// a known position needs no id lookups.
	adjPos []int32
	// cost, when non-nil, mirrors adj with the sender-side physical delay
	// of each directed edge, memoized at build time (see
	// PeerState.treeCost). nil when build-time values may not match
	// query-time resolution (the sparse ablation).
	cost []float32
	// keep, when non-nil, restricts the view to the positions whose bit
	// is set (bit i of keep[i/64]); kept counts them. nil keeps every
	// member.
	keep []uint64
	kept int
}

// Len reports the number of tree members.
func (t *TreeAdj) Len() int {
	switch {
	case t == nil:
		return 0
	case t.keep != nil:
		return t.kept
	}
	return len(t.nodes)
}

// has reports whether position i is part of the view.
func (t *TreeAdj) has(i int32) bool {
	return t.keep == nil || t.keep[i>>6]&(1<<(i&63)) != 0
}

// pos returns u's position in nodes, or -1 when u is not a member.
func (t *TreeAdj) pos(u overlay.PeerID) int {
	lo, hi := 0, len(t.byID)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.nodes[t.byID[mid]] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.byID) && t.nodes[t.byID[lo]] == u && t.has(t.byID[lo]) {
		return int(t.byID[lo])
	}
	return -1
}

// Contains reports whether u is a tree member.
func (t *TreeAdj) Contains(u overlay.PeerID) bool {
	return t != nil && len(t.nodes) > 0 && t.pos(u) >= 0
}

// DetachLaunch returns copies of a launch's view and of the covered
// chain node that adds it, sharing nothing with the launcher's PeerState.
// Tree views alias the state's slabs, which a sharded rebuild may hand
// to another state, so messages that can outlive a rebuild — the
// message-level engine's — carry detached copies. The chain below cs is
// returned as is: it holds the views of earlier launches, detached when
// those launched.
func DetachLaunch(adj *TreeAdj, cs *CoveredSet) (*TreeAdj, *CoveredSet) {
	d := &TreeAdj{
		nodes: slices.Clone(adj.nodes), byID: slices.Clone(adj.byID),
		off: slices.Clone(adj.off), adj: slices.Clone(adj.adj), adjPos: slices.Clone(adj.adjPos),
		cost: slices.Clone(adj.cost), keep: slices.Clone(adj.keep), kept: adj.kept,
	}
	var parent *CoveredSet
	if cs != nil {
		parent = cs.parent
	}
	return d, parent.extend(d)
}

// CoveredSet is the accumulated set of peers covered by the chain of
// multicast trees a query message descends from. Launchers use it to
// prune their trees. It is an immutable chain — each launch links a new
// node referencing only its own tree's member list — so extending it is
// O(1) and costs one small allocation even on launch-heavy floods.
// Membership checks either walk the chain (Has) or, on the hot path, are
// answered in O(1) from a FloodScratch that has materialized the chain
// into its epoch-tagged bitset.
type CoveredSet struct {
	parent *CoveredSet
	adj    *TreeAdj
}

// Has reports whether p is covered anywhere along the chain.
func (c *CoveredSet) Has(p overlay.PeerID) bool {
	for cc := c; cc != nil; cc = cc.parent {
		if cc.adj.Contains(p) {
			return true
		}
	}
	return false
}

// Empty reports whether the chain covers nothing.
func (c *CoveredSet) Empty() bool {
	for cc := c; cc != nil; cc = cc.parent {
		if cc.adj.Len() > 0 {
			return false
		}
	}
	return true
}

// extend returns a new chain node adding adj's members on top of c.
func (c *CoveredSet) extend(adj *TreeAdj) *CoveredSet {
	return &CoveredSet{parent: c, adj: adj}
}

// epochSet is a dense peer set cleared in O(1): membership is "stamp
// equals current epoch", so beginning a fresh set is one counter bump.
type epochSet struct {
	epoch uint32
	mark  []uint32
}

// begin readies an empty set over a population of n peers.
func (s *epochSet) begin(n int) {
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(s.mark)
		s.epoch = 1
	}
}

func (s *epochSet) add(p overlay.PeerID)      { s.mark[p] = s.epoch }
func (s *epochSet) has(p overlay.PeerID) bool { return s.mark[p] == s.epoch }

// FloodScratch is the per-worker arena the forwarding hot path runs in:
// epoch-tagged peer sets replace the per-call maps, and the covered-set
// chain is materialized into a bitset once per distinct chain instead of
// being re-walked per membership probe. A scratch may be reused across
// queries and forwarders; it must not be shared by concurrent callers.
type FloodScratch struct {
	seen epochSet // splice BFS dedup

	// cover is the epoch-tagged bitset of lastCover's chain members;
	// consecutive Forward calls carrying the same chain (the common case
	// while one tree's continuation floods) skip re-materializing.
	cover     epochSet
	lastCover *CoveredSet

	rivals    []overlay.PeerID
	queuePos  []int32
	targetPos []int32

	// Election cost views, fetched lazily per pruneLaunch: slot 0 is the
	// launcher, slot i+1 is rivals[i]. Indexing the cached distance
	// vectors directly keeps the rival×candidate loop off the oracle's
	// per-pair path.
	views  []overlay.CostView
	viewOK []bool

	// arena, when armed by BeginQuery, serves the launch-lifetime
	// allocations (keep masks, view headers, covered-chain nodes) from
	// chunks recycled across queries. Only callers with a clear query
	// boundary — the flood kernels — arm it; everyone else gets plain
	// allocations.
	arena *floodArena
}

// floodArena bump-allocates the objects a launch hands to its messages.
type floodArena struct {
	masks  slabPool[uint64]
	hdrs   slabPool[TreeAdj]
	chains slabPool[CoveredSet]
}

// slabPool hands out slices of a list of chunks. rewind makes every
// chunk reusable at once, so a pool that has grown to a query's working
// set allocates nothing for later queries; within a query, slices
// already handed out are never reused.
type slabPool[T any] struct {
	chunks   [][]T
	cur, off int
}

func (p *slabPool[T]) rewind() { p.cur, p.off = 0, 0 }

// alloc returns n elements, which hold whatever the chunk last held;
// new chunks have room for at least chunk elements.
func (p *slabPool[T]) alloc(n, chunk int) []T {
	for ; p.cur < len(p.chunks); p.cur, p.off = p.cur+1, 0 {
		if c := p.chunks[p.cur]; p.off+n <= len(c) {
			s := c[p.off : p.off+n : p.off+n]
			p.off += n
			return s
		}
	}
	p.chunks = append(p.chunks, make([]T, max(chunk, n)))
	p.off = n
	return p.chunks[p.cur][:n:n]
}

// BeginQuery arms (or resets) the scratch's launch arena and drops the
// materialized-chain cache. Callers MUST have a hard lifetime boundary:
// nothing from any earlier query through this scratch — no Send, TreeAdj
// or CoveredSet — may still be referenced, because the arena chunks are
// reused in place. The flood kernels call this once per query; scratches
// used without query boundaries (the pooled Forward wrapper, the live
// engine) never arm the arena and keep plain allocations.
func (sc *FloodScratch) BeginQuery() {
	if sc.arena == nil {
		sc.arena = &floodArena{}
	}
	sc.arena.masks.rewind()
	sc.arena.hdrs.rewind()
	sc.arena.chains.rewind()
	sc.lastCover = nil
}

// Release drops the scratch's reference to the last materialized covered
// chain so finished queries do not pin their trees in pooled scratches.
func (sc *FloodScratch) Release() { sc.lastCover = nil }

// extendCover chains adj onto c, from the arena when armed.
func (sc *FloodScratch) extendCover(c *CoveredSet, adj *TreeAdj) *CoveredSet {
	if sc.arena == nil {
		return c.extend(adj)
	}
	cc := &sc.arena.chains.alloc(1, 256)[0]
	*cc = CoveredSet{parent: c, adj: adj}
	return cc
}

// materializeCover stamps every member of c's chain into the cover set.
func (sc *FloodScratch) materializeCover(c *CoveredSet, n int) {
	if sc.lastCover == c && sc.cover.epoch != 0 && len(sc.cover.mark) >= n {
		return
	}
	sc.cover.begin(n)
	for cc := c; cc != nil; cc = cc.parent {
		a := cc.adj
		switch {
		case a == nil:
		case a.keep == nil:
			for _, m := range a.nodes {
				sc.cover.add(m)
			}
		default:
			for w, word := range a.keep {
				for ; word != 0; word &= word - 1 {
					sc.cover.add(a.nodes[w<<6|bits.TrailingZeros64(word)])
				}
			}
		}
	}
	sc.lastCover = c
}

// Send is one query transmission: the target peer, the multicast tree
// the message is serving (the tree owner's id, or NoTree for blind
// flooding), that tree's adjacency and the chain's covered set. ToPos is
// the target's position within Adj (-1 for blind copies), letting the
// receiver continue the tree without looking itself up. Cost, when
// non-negative, is the memoized sender-side physical delay of the edge
// (from the adjacency's cost mirror); -1 means the engine prices the
// link itself.
type Send struct {
	To      overlay.PeerID
	ToPos   int32
	Cost    float32
	Tree    overlay.PeerID
	Adj     *TreeAdj
	Covered *CoveredSet
}

// NoTree tags transmissions that serve no multicast tree.
const NoTree overlay.PeerID = -1

// Forwarder decides where a peer relays a query. It is the seam between
// the routing strategy (blind flooding vs ACE trees) and the query
// engines in package gnutella.
//
// The engines enforce two layers of duplicate suppression: a peer's
// non-forwarding bookkeeping (scope, responses) happens only on its
// first copy of a query, and each tree tag is continued at most once per
// peer (the engines drop repeat-tag sends), so tree multicasts complete
// without reflection storms.
type Forwarder interface {
	// Forward returns the transmissions p makes for a received copy of
	// a query originated at src, arriving from neighbor `from` (-1 when
	// p originates it) as part of tree `serving` with adjacency
	// `servingAdj` and chain coverage `covered` (NoTree/nil for blind
	// copies). first reports whether this is p's first copy of the
	// query. Implementations never target `from`.
	Forward(src, p, from, serving overlay.PeerID, servingAdj *TreeAdj, covered *CoveredSet, first bool) []Send
}

// ScratchForwarder is the allocation-free fast path the flood kernels
// use: ForwardInto appends the transmissions to out (which the caller
// may reuse across calls — the result aliases it) and runs all set
// bookkeeping in sc. pPos is p's position within servingAdj (a Send's
// ToPos; -1 when unknown or not serving a tree). Both built-in
// forwarders implement it; Forward remains the convenient allocating
// form for tests and one-off calls.
type ScratchForwarder interface {
	Forwarder
	ForwardInto(sc *FloodScratch, out []Send, src, p, from, serving overlay.PeerID, servingAdj *TreeAdj, pPos int32, covered *CoveredSet, first bool) []Send
}

// BlindFlooding forwards to every neighbor except the arrival link — the
// Gnutella baseline of §3.1.
type BlindFlooding struct {
	Net *overlay.Network
}

var _ ScratchForwarder = BlindFlooding{}

// Forward implements Forwarder: blind flooding relays only the first
// copy, to every neighbor but the sender.
func (b BlindFlooding) Forward(src, p, from, serving overlay.PeerID, servingAdj *TreeAdj, covered *CoveredSet, first bool) []Send {
	if !first {
		return nil
	}
	nbrs := b.Net.NeighborsView(p)
	return b.ForwardInto(nil, make([]Send, 0, len(nbrs)), src, p, from, serving, servingAdj, -1, covered, first)
}

// ForwardInto implements ScratchForwarder. Blind flooding needs no
// scratch; sc may be nil.
func (b BlindFlooding) ForwardInto(_ *FloodScratch, out []Send, _, p, from, _ overlay.PeerID, _ *TreeAdj, _ int32, _ *CoveredSet, first bool) []Send {
	if !first {
		return out
	}
	for _, q := range b.Net.NeighborsView(p) {
		if q != from {
			out = append(out, Send{To: q, ToPos: -1, Cost: -1, Tree: NoTree})
		}
	}
	return out
}

// TreeForwarding routes queries along ACE multicast trees (§3.3–3.4).
// The source multicasts over its own tree, which spans its h-neighbor
// closure (Figures 5/6); every member relays the tree onward. A member
// whose surroundings the chain has not covered extends the search by
// launching its own tree, pruned to the branches that reach uncovered
// peers: uncovered direct neighbors are always kept (which is what
// retains the paper's search scope — every reached peer guarantees its
// neighbors are reached), and a farther uncovered member is kept only if
// the launcher is the closest already-covered peer it knows to that
// member, so adjacent launchers do not re-flood each other's regions.
//
// Tree links are forwarding connections, not necessarily overlay
// connections — a peer can always send to an IP it learned from a cost
// table (Figure 3(b) draws exactly such a link).
//
// Peers without built state (joined since the last exchange) fall back
// to blind flooding, as a real client would before learning any tables.
type TreeForwarding struct {
	Opt *Optimizer
}

var _ ScratchForwarder = TreeForwarding{}

// scratchPool backs the allocating Forward wrapper so ad-hoc callers
// (tests, walkthroughs) stay cheap without threading a scratch around.
var scratchPool = sync.Pool{New: func() any { return new(FloodScratch) }}

// Forward implements Forwarder.
func (t TreeForwarding) Forward(src, p, from, serving overlay.PeerID, servingAdj *TreeAdj, covered *CoveredSet, first bool) []Send {
	pPos := int32(-1)
	if serving != NoTree && servingAdj != nil {
		pPos = int32(servingAdj.pos(p))
	}
	sc := scratchPool.Get().(*FloodScratch)
	out := t.ForwardInto(sc, nil, src, p, from, serving, servingAdj, pPos, covered, first)
	sc.lastCover = nil // do not pin a chain (and its trees) in the pool
	scratchPool.Put(sc)
	return out
}

// ForwardInto implements ScratchForwarder.
func (t TreeForwarding) ForwardInto(sc *FloodScratch, out []Send, src, p, from, serving overlay.PeerID, servingAdj *TreeAdj, pPos int32, covered *CoveredSet, first bool) []Send {
	own := t.Opt.State(p)
	if own == nil {
		return BlindFlooding{Net: t.Opt.Network()}.ForwardInto(sc, out, src, p, from, serving, servingAdj, pPos, covered, first)
	}
	net := t.Opt.Network()
	if serving != NoTree && serving != p {
		// Continue the tree this message serves. The sender already
		// carries this tag, so it is excluded.
		out = appendTreeSends(sc, net, out, servingAdj, pPos, serving, covered, from, true)
	}
	if first {
		// A launch is a fresh multicast: it may legitimately flow back
		// through the sender, which has not seen this tag and may be
		// the only path to an uncovered branch. The launcher sits at
		// position 0 of its own closure.
		if pruned, cs := t.pruneLaunch(sc, own, p, covered); pruned != nil {
			out = appendTreeSends(sc, net, out, pruned, 0, p, cs, from, false)
		}
	}
	return out
}

// appendTreeSends walks adj outward from position pPos, appending one
// Send per live target; positions outside a pruned view are skipped. A
// target may receive two tags from the same relay when it sits on both
// trees; dropping either would orphan that tree's subtree. Targets that
// left since the last exchange are spliced around: the relay holds the
// full tree, so it forwards directly to the dead member's tree children
// instead. The whole walk runs in tree positions through the
// adjacency's position mirror.
func appendTreeSends(sc *FloodScratch, net *overlay.Network, out []Send, adj *TreeAdj, pPos int32, tree overlay.PeerID, cs *CoveredSet, from overlay.PeerID, excludeFrom bool) []Send {
	if adj == nil || pPos < 0 {
		return out
	}
	// Fast path: emit the bucket in order optimistically; the first dead
	// neighbor (other than the excluded sender, which the BFS skips
	// without splicing anyway) rolls the batch back and falls through to
	// the splice BFS.
	b := adj.off[pPos]
	ids := adj.adj[b:adj.off[pPos+1]]
	poss := adj.adjPos[b:adj.off[pPos+1]]
	base := len(out)
	live := true
	for i, q := range ids {
		if excludeFrom && q == from || !adj.has(poss[i]) {
			continue
		}
		if !net.Alive(q) {
			out = out[:base]
			live = false
			break
		}
		c := float32(-1)
		if adj.cost != nil {
			c = adj.cost[b+int32(i)]
		}
		out = append(out, Send{To: q, ToPos: poss[i], Cost: c, Tree: tree, Adj: adj, Covered: cs})
	}
	if live {
		return out
	}
	sc.seen.begin(len(adj.nodes))
	sc.seen.add(overlay.PeerID(pPos))
	queue := append(sc.queuePos[:0], adj.adjPos[adj.off[pPos]:adj.off[pPos+1]]...)
	for i := 0; i < len(queue); i++ {
		qp := queue[i]
		if sc.seen.has(overlay.PeerID(qp)) || !adj.has(qp) {
			continue
		}
		sc.seen.add(overlay.PeerID(qp))
		q := adj.nodes[qp]
		if excludeFrom && q == from {
			continue
		}
		if net.Alive(q) {
			// Splice targets may be several tree hops away, so the edge
			// is priced by the engine (Cost -1).
			out = append(out, Send{To: q, ToPos: qp, Cost: -1, Tree: tree, Adj: adj, Covered: cs})
		} else {
			queue = append(queue, adj.adjPos[adj.off[qp]:adj.off[qp+1]]...)
		}
	}
	sc.queuePos = queue
	return out
}

// pruneLaunch cuts p's own tree down to the branches that reach peers
// the chain has not covered and returns the pruned adjacency and the
// extended covered set (nil adjacency when the launch would add
// nothing). An originating peer (empty chain), or a launch that keeps
// every member, floods its whole tree view; any other launch is that
// view plus a keep mask.
func (t TreeForwarding) pruneLaunch(sc *FloodScratch, st *PeerState, p overlay.PeerID, covered *CoveredSet) (*TreeAdj, *CoveredSet) {
	full := st.FullTree()
	if covered.Empty() {
		return full, sc.extendCover(covered, full)
	}
	targets := t.launchTargets(sc, st, p, covered)
	switch len(targets) {
	case 0:
		return nil, nil
	case len(st.Closure) - 1:
		// Every non-root member survived: the launch is the whole tree.
		return full, sc.extendCover(covered, full)
	}
	pruned := sc.allocView()
	*pruned = *full
	pruned.keep, pruned.kept = sc.keepMask(st, targets)
	return pruned, sc.extendCover(covered, pruned)
}

// launchTargets returns the closure positions of the uncovered members
// p's launch must reach, applying the neighbor guarantee and the
// closest-covered-peer election. The slice is sc's scratch.
func (t TreeForwarding) launchTargets(sc *FloodScratch, st *PeerState, p overlay.PeerID, covered *CoveredSet) []int32 {
	net := t.Opt.Network()
	sc.materializeCover(covered, net.N())
	nbrs := net.NeighborsView(p)

	// The rival claimants (covered members of p's closure) and their
	// election cost views materialize lazily — most launches keep every
	// uncovered member through the neighbor guarantee and never hold an
	// election at all.
	var rivals []overlay.PeerID
	var views []overlay.CostView
	var viewOK []bool
	haveRivals := false

	// Targets are collected as closure POSITIONS — keepMask runs
	// entirely in position space.
	targets := sc.targetPos[:0]
	noElection := t.Opt.Config().NoLaunchElection
	for i, x := range st.Closure {
		if x == p || sc.cover.has(x) {
			continue
		}
		if noElection || onTree(nbrs, x) {
			targets = append(targets, int32(i)) // scope guarantee / ablation
			continue
		}
		if !haveRivals {
			rivals = sc.rivals[:0]
			for _, c := range st.Closure {
				if c != p && sc.cover.has(c) {
					rivals = append(rivals, c)
				}
			}
			sc.rivals = rivals
			nv := len(rivals) + 1
			if cap(sc.views) < nv {
				sc.views = make([]overlay.CostView, nv)
				sc.viewOK = make([]bool, nv)
			}
			views, viewOK = sc.views[:nv], sc.viewOK[:nv]
			for j := range viewOK {
				viewOK[j] = false
			}
			haveRivals = true
		}
		// Election: keep x only if p is the nearest covered peer it
		// knows to x (ties broken toward the smaller id). Slot 0 is p's
		// cost view, slot ci+1 is rivals[ci]'s, each fetched on first use.
		win := true
		if !viewOK[0] {
			views[0] = net.CostsFrom(p)
			viewOK[0] = true
		}
		px := views[0].To(x)
		for ci, c := range rivals {
			if !viewOK[ci+1] {
				views[ci+1] = net.CostsFrom(c)
				viewOK[ci+1] = true
			}
			if cx := views[ci+1].To(x); cx < px || (cx == px && c < p) {
				win = false
				break
			}
		}
		if win {
			targets = append(targets, int32(i))
		}
	}
	sc.targetPos = targets
	return targets
}

// allocView returns a view header, from the arena when armed.
func (sc *FloodScratch) allocView() *TreeAdj {
	if sc.arena == nil {
		return &TreeAdj{}
	}
	return &sc.arena.hdrs.alloc(1, 256)[0]
}

// keepMask marks the branches of st's tree (rooted at its owner,
// closure position 0) that reach at least one of the target positions,
// returning the mask over closure positions and the number of kept
// members. The keep set is the union of the target→root parent walks —
// each walk stops at the first already-kept ancestor, so marking costs
// O(kept) total instead of a full-tree DFS — and, being a union of root
// paths, a connected subtree.
func (sc *FloodScratch) keepMask(st *PeerState, targets []int32) ([]uint64, int) {
	words := (len(st.Closure) + 63) >> 6
	var keep []uint64
	if sc.arena != nil {
		keep = sc.arena.masks.alloc(words, 4096)
		clear(keep)
	} else {
		keep = make([]uint64, words)
	}
	keep[0] = 1
	kept := 1
	for _, pi := range targets {
		for w := pi; keep[w>>6]&(1<<(w&63)) == 0; w = st.parentPos[w] {
			keep[w>>6] |= 1 << (w & 63)
			kept++
		}
	}
	return keep, kept
}

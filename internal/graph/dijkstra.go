package graph

import "math"

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

type pqItem struct {
	node int
	dist float64
}

// pq is a binary min-heap on dist, sifted directly on the slice.
// container/heap would box every pqItem through `any` — one heap
// allocation per push and per pop.
// The sift loops mirror container/heap's up/down comparisons exactly, so
// items with equal dist pop in the identical order and the parent trees
// and MSTs built from them are unchanged.
type pq []pqItem

// push appends it and sifts it up.
func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the minimum item.
func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

// Dijkstra computes single-source shortest paths from src. It returns the
// distance to every node (Inf when unreachable) and the parent of every
// node on its shortest path (-1 for src and unreachable nodes).
func Dijkstra(g *Graph, src int) (dist []float64, parent []int) {
	n := g.N()
	dist = make([]float64, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	if src < 0 || src >= n {
		return dist, parent
	}
	dist[src] = 0
	q := pq{{node: src}}
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for _, a := range g.Neighbors(it.node) {
			if nd := it.dist + a.W; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = it.node
				q.push(pqItem{node: a.To, dist: nd})
			}
		}
	}
	return dist, parent
}

// DijkstraScratch holds the working state of DijkstraDistInto, so
// repeated single-source fills over one graph (the delay oracle's vector
// fills) reuse the distance slice and the buckets, and derive the bucket
// width once per graph instead of once per fill. The zero value is ready
// to use.
type DijkstraScratch struct {
	dist    []float64
	at      []int32   // bucket holding v's pending entry, or -1
	buckets [][]int32 // buckets[i]: nodes with ⌊dist/Δ⌋ = i; larger indices go in the last

	g   *Graph // graph, at edge count m, that inv was derived for
	m   int
	inv float64 // 1/Δ, or 0 for a single bucket
}

// prepare sizes s for g and derives its bucket width, unless s was last
// used on g at its current edge count.
func (s *DijkstraScratch) prepare(g *Graph) {
	if s.g == g && s.m == g.M() {
		return
	}
	n := g.N()
	s.g, s.m = g, g.M()
	s.dist = make([]float64, n)
	s.at = make([]int32, n)
	for i := range s.at {
		s.at[i] = -1
	}
	s.buckets = make([][]int32, n+1)
	s.inv = bucketInv(g)
}

// bucketInv derives 1/Δ, the inverse bucket width, from g's weights. Δ
// starts at the smallest positive edge weight, so relaxing an edge moves
// a node to a later bucket and every node is scanned about once, as in
// Dial's algorithm. When weights are tiny, Δ is raised to L/n, where
// L = 2·h·maxW bounds every finite distance: h is the largest BFS depth
// of a component from its first node, so any two nodes of a component
// are at most 2h hops apart, each hop weighing at most the largest finite
// weight maxW. With that floor every distance falls within bucket n
// (rounding aside), so nothing piles into the last bucket, where larger
// indices are clamped, and a fill walks at most n+1 buckets, empty ones
// included. It returns 0 (one bucket) when no positive width is
// representable, e.g. when every weight is zero.
func bucketInv(g *Graph) float64 {
	minW, maxW := Inf, 0.0
	for u := range g.adj {
		for _, a := range g.adj[u] {
			if a.W > 0 && a.W < minW {
				minW = a.W
			}
			if a.W > maxW && a.W < Inf {
				maxW = a.W
			}
		}
	}
	delta := max(minW, float64(2*hopDepth(g))*maxW/float64(g.N()))
	if inv := 1 / delta; inv < Inf {
		return inv
	}
	return 0
}

// hopDepth returns the largest BFS depth of any component of g, measured
// from the component's lowest-numbered node.
func hopDepth(g *Graph) int {
	depth := make([]int32, g.N())
	for i := range depth {
		depth[i] = -1
	}
	var queue []int32
	h := 0
	for r := range depth {
		if depth[r] >= 0 {
			continue
		}
		depth[r] = 0
		queue = append(queue[:0], int32(r))
		for k := 0; k < len(queue); k++ {
			u := queue[k]
			for _, a := range g.adj[u] {
				if depth[a.To] < 0 {
					depth[a.To] = depth[u] + 1
					h = max(h, int(depth[a.To]))
					queue = append(queue, int32(a.To))
				}
			}
		}
	}
	return h
}

// DijkstraDistInto computes single-source shortest-path distances from
// src into scratch (Inf when unreachable) and returns the distance slice,
// which is owned by scratch and valid until its next use. Edge weights
// must be non-negative.
//
// It is Dial's bucket-queue variant of Dijkstra: nodes wait in buckets of
// width Δ (see bucketInv), which are scanned in order, each first to
// last, and a node whose distance drops while its bucket is being scanned
// is queued into that bucket again and rescanned. That makes the fill
// label-correcting, and its result is exactly Dijkstra's, bit for bit,
// whatever Δ is: round-to-nearest addition is monotone, and with
// non-negative weights fl(d+w) ≥ d, so a fill can only stop at the least
// fixed point d(v) = min over edges u–v of fl(d(u) + w), which is the
// minimum over walks from src of the left-to-right float sum of their
// weights — the value Dijkstra's heap order also reaches. Zero-weight
// edges re-queue into the current bucket, so they need no special case.
func DijkstraDistInto(s *DijkstraScratch, g *Graph, src int) []float64 {
	s.prepare(g)
	dist, at, buckets, inv := s.dist, s.at, s.buckets, s.inv
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= len(dist) {
		return dist
	}
	last := len(buckets) - 1
	dist[src] = 0
	at[src] = 0
	buckets[0] = append(buckets[0], int32(src))
	top := 0
	for i := 0; i <= top; i++ {
		for k := 0; k < len(buckets[i]); k++ {
			u := buckets[i][k]
			if at[u] != int32(i) {
				continue // stale: u moved to an earlier bucket and was scanned there
			}
			at[u] = -1
			du := dist[u]
			for _, a := range g.adj[u] {
				nd := du + a.W
				if !(nd < dist[a.To]) {
					continue
				}
				dist[a.To] = nd
				// Monotone in nd, and never below i since nd ≥ du; the
				// unsigned compare also clamps out-of-range conversions.
				b := int(nd * inv)
				if uint(b) > uint(last) {
					b = last
				}
				if at[a.To] != int32(b) {
					at[a.To] = int32(b)
					buckets[b] = append(buckets[b], int32(a.To))
					top = max(top, b)
				}
			}
		}
		buckets[i] = buckets[i][:0]
	}
	return dist
}

// PathTo reconstructs the shortest path src→dst from a Dijkstra parent
// array. It returns nil when dst is unreachable.
func PathTo(parent []int, src, dst int) []int {
	if dst < 0 || dst >= len(parent) {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	if parent[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

package graph_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"ace/internal/graph"
	"ace/internal/sim"
	"ace/internal/topology"
)

// distCase is one graph the bucket-queue fill is checked on against the
// heap Dijkstra.
type distCase struct {
	name string
	g    *graph.Graph
}

func distCases(tb testing.TB, scale int) []distCase {
	tb.Helper()
	ba, err := topology.GenerateBA(sim.NewRNG(31), topology.DefaultBASpec(scale))
	if err != nil {
		tb.Fatal(err)
	}
	wax, err := topology.GenerateWaxman(sim.NewRNG(32), topology.WaxmanSpec{N: scale / 2, Alpha: 0.2, Beta: 0.15, MinDelay: 1, DelayScale: 40})
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := topology.GenerateTransitStub(sim.NewRNG(33), topology.DefaultTransitStubSpec(scale))
	if err != nil {
		tb.Fatal(err)
	}
	return []distCase{
		{"ba", ba.Graph},
		{"waxman", wax.Graph},
		{"transit-stub", ts.Graph}, // integer weights: many equal-distance ties
		{"zero-weight", zeroWeightGraph()},
		{"disconnected", disconnectedGraph()},
		{"single-node", graph.New(1)},
		{"skewed", skewedGraph(rand.New(rand.NewSource(34)), scale/4)},
	}
}

// zeroWeightGraph chains zero-weight edges into and out of a cheaper
// detour, so a node's distance can drop inside the bucket being scanned.
func zeroWeightGraph() *graph.Graph {
	g := graph.New(8)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(0, 3, 2.5)
	g.AddEdge(2, 3, 0.1)
	g.AddEdge(3, 4, 0)
	g.AddEdge(4, 5, 1)
	g.AddEdge(2, 5, 1.3)
	g.AddEdge(5, 6, 0)
	g.AddEdge(6, 7, 0)
	return g
}

// disconnectedGraph has three components (one an isolated node), so
// every fill leaves some distances at +Inf.
func disconnectedGraph() *graph.Graph {
	g := graph.New(7)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 0.5)
	g.AddEdge(0, 2, 2)
	g.AddEdge(3, 4, 3)
	g.AddEdge(4, 5, 1e-3)
	return g
}

// skewedGraph is a random connected graph with weights spread from 1e-6
// to 1e3: a ring plus chords, weights log-uniform, with one edge pinned
// at each extreme. Δ = min weight would put a typical distance a billion
// buckets out.
func skewedGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	weight := func() float64 { return math.Pow(10, -6+9*rng.Float64()) }
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, weight())
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, weight())
		}
	}
	g.AddEdge(0, n/2, 1e-6)
	g.AddEdge(1, n/2+1, 1e3)
	return g
}

// checkDistInto compares DijkstraDistInto from src against Dijkstra bit
// for bit, as float64 and as the float32 the delay oracle stores.
func checkDistInto(t *testing.T, s *graph.DijkstraScratch, g *graph.Graph, src int) {
	t.Helper()
	want, _ := graph.Dijkstra(g, src)
	got := graph.DijkstraDistInto(s, g, src)
	if len(got) != len(want) {
		t.Fatalf("src %d: %d distances, want %d", src, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("src %d: dist[%d] = %v, Dijkstra %v", src, v, got[v], want[v])
		}
		if math.Float32bits(float32(got[v])) != math.Float32bits(float32(want[v])) {
			t.Fatalf("src %d: float32 dist[%d] = %v, Dijkstra %v", src, v, float32(got[v]), float32(want[v]))
		}
	}
}

func TestDistIntoMatchesDijkstra(t *testing.T) {
	// One scratch across all graphs: it must re-derive its buckets when
	// the graph changes.
	var s graph.DijkstraScratch
	for _, c := range distCases(t, 800) {
		t.Run(c.name, func(t *testing.T) {
			for src := 0; src < c.g.N(); src++ {
				checkDistInto(t, &s, c.g, src)
			}
		})
	}
}

func TestDistIntoUnreachable(t *testing.T) {
	var s graph.DijkstraScratch
	g := disconnectedGraph()
	dist := graph.DijkstraDistInto(&s, g, 0)
	for v := 3; v < g.N(); v++ {
		if !math.IsInf(dist[v], 1) {
			t.Fatalf("dist[%d] = %v, want +Inf", v, dist[v])
		}
	}
	for _, src := range []int{-1, g.N()} {
		for v, d := range graph.DijkstraDistInto(&s, g, src) {
			if !math.IsInf(d, 1) {
				t.Fatalf("out-of-range source %d: dist[%d] = %v, want +Inf", src, v, d)
			}
		}
	}
}

func TestDistIntoSeesAddedEdges(t *testing.T) {
	var s graph.DijkstraScratch
	g := graph.New(3)
	g.AddEdge(0, 1, 4)
	if d := graph.DijkstraDistInto(&s, g, 0)[2]; !math.IsInf(d, 1) {
		t.Fatalf("dist[2] = %v before the edge exists", d)
	}
	g.AddEdge(1, 2, 1e-3)
	checkDistInto(t, &s, g, 0)
}

// TestDistIntoSkewedWeights checks that the Δ floor keeps skewed weights
// from spreading distances over far more than n buckets: every finite
// distance must fall within bucket n, and a fill must stay within a small
// multiple of the heap Dijkstra's time.
func TestDistIntoSkewedWeights(t *testing.T) {
	g := skewedGraph(rand.New(rand.NewSource(35)), 2000)
	inv := graph.BucketInv(g)
	if inv >= 1e6 {
		t.Fatalf("1/Δ = %v: Δ was not raised above the 1e-6 minimum weight", inv)
	}
	var s graph.DijkstraScratch
	srcs := []int{0, 1, 17, 999, 1999}
	for _, src := range srcs {
		checkDistInto(t, &s, g, src)
		for v, d := range graph.DijkstraDistInto(&s, g, src) {
			if !math.IsInf(d, 1) && d*inv >= float64(g.N()+1) {
				t.Fatalf("src %d: dist[%d] = %v lies in bucket %v, past n = %d", src, v, d, d*inv, g.N())
			}
		}
	}

	const rounds = 3
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, src := range srcs {
			graph.Dijkstra(g, src)
		}
	}
	heap := time.Since(start)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, src := range srcs {
			graph.DijkstraDistInto(&s, g, src)
		}
	}
	if bucket := time.Since(start); bucket > 10*heap+50*time.Millisecond {
		t.Fatalf("bucket fills took %v, heap Dijkstra %v", bucket, heap)
	}
}

// Fuzz input layout: byte 0 picks n = 1 + b%64 nodes; then each 10-byte
// record adds edge (b0%n, b1%n) with weight |float64 of the next 8 bytes,
// little-endian|. Self-loops and NaN weights are skipped, so every weight
// is ≥ 0 (+Inf and subnormals included).
const fuzzRecord = 10

func decodeFuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.New(1)
	}
	n := 1 + int(data[0])%64
	g := graph.New(n)
	for rec := data[1:]; len(rec) >= fuzzRecord; rec = rec[fuzzRecord:] {
		u, v := int(rec[0])%n, int(rec[1])%n
		w := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(rec[2:fuzzRecord])))
		if u != v && !math.IsNaN(w) {
			g.AddEdge(u, v, w)
		}
	}
	return g
}

func encodeFuzzGraph(g *graph.Graph) []byte {
	data := []byte{byte(g.N() - 1)}
	for _, e := range g.Edges() {
		data = append(data, byte(e.U), byte(e.V))
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(e.W))
	}
	return data
}

func FuzzShortestPaths(f *testing.F) {
	for _, c := range distCases(f, 48) {
		if c.g.N() <= 64 {
			f.Add(encodeFuzzGraph(c.g))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeFuzzGraph(data)
		var s graph.DijkstraScratch
		for src := 0; src < g.N(); src++ {
			checkDistInto(t, &s, g, src)
		}
	})
}

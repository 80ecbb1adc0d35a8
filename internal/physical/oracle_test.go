package physical

import (
	"math"
	"slices"
	"sync"
	"testing"

	"ace/internal/graph"
	"ace/internal/sim"
	"ace/internal/topology"
)

func lineGraph() *graph.Graph {
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(3, 4, 4)
	return g
}

func TestDelayBasics(t *testing.T) {
	o := NewOracle(lineGraph(), 0)
	if d := o.Delay(0, 4); d != 10 {
		t.Fatalf("Delay(0,4) = %v, want 10", d)
	}
	if d := o.Delay(4, 0); d != 10 {
		t.Fatalf("Delay symmetric: got %v", d)
	}
	if d := o.Delay(2, 2); d != 0 {
		t.Fatalf("Delay(self) = %v, want 0", d)
	}
}

func TestDelayUsesReverseCache(t *testing.T) {
	o := NewOracle(lineGraph(), 0)
	o.Delay(0, 4) // caches vector for 0
	o.Delay(4, 0) // should hit 0's vector, not run Dijkstra from 4
	st := o.Stats()
	if st.Dijkstras != 1 {
		t.Fatalf("Dijkstras = %d, want 1 (reverse lookup should hit cache)", st.Dijkstras)
	}
	if st.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", st.Queries)
	}
	// 2 queries, 1 Dijkstra: half the lookups were answered from cache.
	if hr := st.HitRatio(); hr != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", hr)
	}
	var zero Stats
	if zero.HitRatio() != 0 {
		t.Fatalf("HitRatio before any query = %v, want 0", zero.HitRatio())
	}
}

func TestDelayDisconnected(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	o := NewOracle(g, 0)
	if d := o.Delay(0, 2); !math.IsInf(d, 1) {
		t.Fatalf("Delay to disconnected node = %v, want +Inf", d)
	}
}

func TestDelayPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewOracle(lineGraph(), 0).Delay(0, 99)
}

func TestCacheEviction(t *testing.T) {
	o := NewOracle(lineGraph(), 2)
	o.Delay(0, 1)
	o.Delay(1, 3) // cache miss for both 1 and 3? only src 1 cached
	o.Delay(2, 4)
	if o.CacheSize() > 2 {
		t.Fatalf("cache size %d exceeds cap 2", o.CacheSize())
	}
	if o.Stats().Evictions == 0 {
		t.Fatal("expected at least one eviction")
	}
	// Evicted entries must still answer correctly.
	if d := o.Delay(0, 4); d != 10 {
		t.Fatalf("post-eviction Delay = %v, want 10", d)
	}
}

func TestWarmAndConcurrency(t *testing.T) {
	rng := sim.NewRNG(21)
	phys, err := topology.GenerateBA(rng, topology.DefaultBASpec(400))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(phys.Graph, 0)
	srcs := make([]int, 100)
	for i := range srcs {
		srcs[i] = i
	}
	o.Warm(srcs, 8)
	if o.CacheSize() != 100 {
		t.Fatalf("Warm cached %d vectors, want 100", o.CacheSize())
	}
	// Concurrent queries agree with a fresh oracle's serial answers.
	ref := NewOracle(phys.Graph, 0)
	var wg sync.WaitGroup
	errs := make(chan string, 100)
	for i := 0; i < 100; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, v := i, (i*37+11)%400
			if got, want := o.Delay(u, v), ref.Delay(u, v); got != want {
				errs <- "concurrent Delay mismatch"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestWarmEmpty(t *testing.T) {
	o := NewOracle(lineGraph(), 0)
	o.Warm(nil, 4) // must not hang or panic
	if o.CacheSize() != 0 {
		t.Fatal("Warm(nil) should cache nothing")
	}
}

func TestPath(t *testing.T) {
	o := NewOracle(lineGraph(), 0)
	p := o.Path(0, 3)
	want := []int{0, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("Path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Path = %v, want %v", p, want)
		}
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	rng := sim.NewRNG(23)
	phys, err := topology.GenerateBA(rng, topology.DefaultBASpec(200))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(phys.Graph, 0)
	for trial := 0; trial < 500; trial++ {
		a, b, c := rng.Intn(200), rng.Intn(200), rng.Intn(200)
		ab, bc, ac := o.Delay(a, b), o.Delay(b, c), o.Delay(a, c)
		if ac > ab+bc+1e-3 {
			t.Fatalf("triangle inequality violated: d(%d,%d)=%v > %v+%v", a, c, ac, ab, bc)
		}
	}
}

// TestConcurrentMissesFillOnce has goroutines miss overlapping cold
// sources at once: each source must be filled exactly once, the others
// waiting for the fill in flight, and every caller must see its vector.
func TestConcurrentMissesFillOnce(t *testing.T) {
	phys, err := topology.GenerateBA(sim.NewRNG(25), topology.DefaultBASpec(600))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewOracle(phys.Graph, 0)
	for _, cacheCap := range []int{0, 1000} { // lock-free mirror and locked map
		o := NewOracle(phys.Graph, cacheCap)
		const workers, sources = 8, 60
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < sources; i++ {
					src := (i*(w+1) + w) % sources
					if !slices.Equal(o.Vector(src), ref.Vector(src)) {
						t.Errorf("cap %d: vector for %d differs from a fresh oracle's", cacheCap, src)
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if st := o.Stats(); st.Dijkstras != uint64(o.CacheSize()) || o.CacheSize() != sources {
			t.Fatalf("cap %d: %d fills for %d cached vectors (want %d each)", cacheCap, st.Dijkstras, o.CacheSize(), sources)
		}
	}
}

package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on shares its processors and memory
// system with other tenants, and how fast it runs memory-bound code
// swings by up to 2x over tens of seconds and drifts over hours. Every
// timed interval is therefore paired with a reference kernel:
// single-source shortest-path searches over a fixed random graph, owned
// by the benchmark and independent of the seed and of the program under
// test. The kernel runs after each set-up, step and timed query batch,
// outside their clock reads, and an interval's reported time is its
// wall time scaled by refKernelMS over the median of the kernel runs
// around it (runner.scaled): the time the interval would have taken on
// the reference host at its usual speed. A change to the program moves
// the interval and not the kernel, so it still shows; a change in the
// host's speed moves both.

// refKernelMS is the kernel's median time on the reference host
// (Intel Xeon, 2 vCPUs, go1.24), to which reported times are scaled.
const refKernelMS = 40.0

// refWindow is the number of neighbouring kernel runs whose median
// gives the host's speed around an interval.
const refWindow = 5

// refKernel is a shortest-path search over a random graph of refNodes
// nodes with refDegree out-edges each (a working set of a few MiB, like
// the program's per-step structures), run on every processor at once
// from different sources: the program spreads its rebuilds, oracle
// fills and query batches over all of them, so the kernel has to see a
// slow neighbour on any core, not only on its own. Each search has
// scratch of its own, so a run allocates nothing.
type refKernel struct {
	off, to []int32
	w       []float32
	search  []*refSearch
}

// refSearch is one search's scratch.
type refSearch struct {
	dist []float32
	heap []refItem
	sink float32
}

type refItem struct {
	v int32
	d float32
}

const (
	refNodes  = 1 << 16
	refDegree = 8
)

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{
		off: make([]int32, refNodes+1),
		to:  make([]int32, refNodes*refDegree),
		w:   make([]float32, refNodes*refDegree),
	}
	for v := 0; v < refNodes; v++ {
		k.off[v+1] = int32((v + 1) * refDegree)
		for j := v * refDegree; j < (v+1)*refDegree; j++ {
			k.to[j] = int32(rng.Intn(refNodes))
			k.w[j] = rng.Float32()
		}
	}
	for range runtime.GOMAXPROCS(0) {
		k.search = append(k.search, &refSearch{
			dist: make([]float32, refNodes),
			heap: make([]refItem, 0, refNodes*refDegree),
		})
	}
	return k
}

// run performs one search per processor, each from its own source, and
// returns the wall time until the last one ends, in milliseconds.
func (k *refKernel) run() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range k.search {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(k, int32(i*refNodes/len(k.search)))
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / 1e6
}

func (s *refSearch) run(k *refKernel, src int32) {
	for i := range s.dist {
		s.dist[i] = float32(1e30)
	}
	s.dist[src] = 0
	s.heap = append(s.heap[:0], refItem{src, 0})
	for len(s.heap) > 0 {
		it := s.pop()
		if it.d > s.dist[it.v] {
			continue
		}
		for e := k.off[it.v]; e < k.off[it.v+1]; e++ {
			u, d := k.to[e], it.d+k.w[e]
			if d < s.dist[u] {
				s.dist[u] = d
				s.push(refItem{u, d})
			}
		}
	}
	var sum float32
	for _, d := range s.dist {
		sum += d
	}
	s.sink += sum
}

func (s *refSearch) push(it refItem) {
	h := append(s.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].d <= h[i].d {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.heap = h
}

func (s *refSearch) pop() refItem {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].d < h[c].d {
			c++
		}
		if h[i].d <= h[c].d {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.heap = h
	return top
}

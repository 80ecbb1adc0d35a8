package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"ace/internal/core"
	"ace/internal/gnutella"
	"ace/internal/overlay"
	"ace/internal/snap"
)

// checkQuery enforces the flood conservation law: every transmission
// either reached a new peer, arrived as a duplicate, was lost in
// transit, or hit a crashed peer. A failure names the query as
// "step <k> <what> <i>"; the name is built only then.
func (r *runner) checkQuery(k int, what string, i int, q gnutella.QueryResult) {
	if got := q.Scope - 1 + q.Duplicates + q.Lost + q.DeadLetters; got != q.Transmissions {
		r.fail("step %d %s %d: scope-1 %d + duplicates %d + lost %d + dead letters %d = %d, transmissions %d",
			k, what, i, q.Scope-1, q.Duplicates, q.Lost, q.DeadLetters, got, q.Transmissions)
	}
}

// componentSizes maps each live peer to the size of its connected
// component over live links: the scope blind flooding with an
// unbounded TTL reaches from it.
func componentSizes(net *overlay.Network) []int {
	label := make([]int, net.N())
	for i := range label {
		label[i] = -1
	}
	var sizes []int
	var stack []overlay.PeerID
	for _, p := range net.AlivePeers() {
		if label[p] >= 0 {
			continue
		}
		id := len(sizes)
		sizes = append(sizes, 0)
		label[p] = id
		stack = append(stack[:0], p)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sizes[id]++
			for _, v := range net.NeighborsView(u) {
				if net.Alive(v) && label[v] < 0 {
					label[v] = id
					stack = append(stack, v)
				}
			}
		}
	}
	out := make([]int, net.N())
	for p, id := range label {
		if id >= 0 {
			out[p] = sizes[id]
		}
	}
	return out
}

// checkAdjacency verifies the overlay's structure: no self-loops, every
// link between live peers listed at both ends, every reference to a
// dead peer a recorded crash leftover, and the live-link count matching
// the network's own.
func (r *runner) checkAdjacency() {
	net := r.sys.Network()
	half := map[overlay.DanglingPair]bool{}
	for _, d := range net.DanglingPairs(nil) {
		half[d] = true
	}
	links, dangling := 0, 0
	for p := overlay.PeerID(0); int(p) < net.N(); p++ {
		nbrs := net.NeighborsView(p)
		if !net.Alive(p) && len(nbrs) > 0 {
			r.fail("adjacency: dead peer %d lists %d neighbours", p, len(nbrs))
		}
		for _, q := range nbrs {
			switch {
			case q == p:
				r.fail("adjacency: self-loop at %d", p)
			case !net.Alive(q):
				if !half[overlay.DanglingPair{Holder: p, Dead: q}] {
					r.fail("adjacency: %d lists dead peer %d without a crash record", p, q)
				}
				dangling++
			case !net.HasEdge(q, p):
				r.fail("adjacency: %d lists %d but not the reverse", p, q)
			default:
				links++
			}
		}
	}
	if links != 2*net.NumEdges() {
		r.fail("adjacency: %d live link ends, network counts %d links", links, net.NumEdges())
	}
	if dangling != net.Dangling() {
		r.fail("adjacency: %d half-open references, network counts %d", dangling, net.Dangling())
	}
}

// checkCheckpoint loads the newest checkpoint back and requires it to
// re-encode byte-identical to the last snapshot saved.
func (r *runner) checkCheckpoint() {
	if r.lastSnap == nil {
		r.fail("checkpoint: none saved")
		return
	}
	want, err := snap.Encode(r.lastSnap)
	if err != nil {
		r.fail("checkpoint: encode: %v", err)
		return
	}
	r.snapBytes = len(want)
	loaded, warnings, err := r.store.Load()
	if err != nil {
		r.fail("checkpoint: load: %v", err)
		return
	}
	if len(warnings) > 0 {
		r.fail("checkpoint: load warnings: %v", warnings)
	}
	got, err := snap.Encode(loaded)
	if err != nil {
		r.fail("checkpoint: re-encode: %v", err)
		return
	}
	if !bytes.Equal(got, want) {
		r.fail("checkpoint: step %d reloads as %d bytes that differ from the %d saved", loaded.Meta.Step, len(got), len(want))
	}
}

// checkAttribution requires the traced steps' layer self times plus
// the residual to add up to the step time step() measured for those
// steps, to the nanosecond: no step work may fall outside the spans.
func (r *runner) checkAttribution() {
	self, _, _, residual, steps := r.trace.layerTimes()
	if steps == 0 || steps != len(r.tracedMS) {
		r.fail("attribution: %d traced step spans for %d traced steps", steps, len(r.tracedMS))
	}
	var sum int64
	for _, ns := range self {
		sum += ns
	}
	if sum+residual != r.tracedNanos {
		r.fail("attribution: self times %d ns + residual %d ns != measured step time %d ns", sum, residual, r.tracedNanos)
	}
}

// trajectoryDigest hashes the live edge set and the summed counts of
// every round so far. Equal seeds must give equal digests; a different
// seed gives a different one.
func trajectoryDigest(net *overlay.Network, reps []core.StepReport) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, e := range net.SnapshotEdges() {
		put(uint64(e.P)<<32 | uint64(uint32(e.Q)))
	}
	var sum core.StepReport
	for _, rep := range reps {
		sum.Probes += rep.Probes
		sum.Replacements += rep.Replacements
		sum.KeptNew += rep.KeptNew
		sum.DeferredCuts += rep.DeferredCuts
		sum.Abandoned += rep.Abandoned
		sum.Repairs += rep.Repairs
		sum.ProbeTraffic += rep.ProbeTraffic
		sum.ExchangeCost += rep.ExchangeCost
		sum.ProbeRetries += rep.ProbeRetries
		sum.ProbeTimeouts += rep.ProbeTimeouts
		sum.StaleMarked += rep.StaleMarked
		sum.StaleExpired += rep.StaleExpired
		sum.BlacklistHits += rep.BlacklistHits
		sum.FailedConnects += rep.FailedConnects
		sum.PurgedEdges += rep.PurgedEdges
		sum.MergeSegments += rep.MergeSegments
		sum.MergeSerialFallbacks += rep.MergeSerialFallbacks
		sum.RepairHits += rep.RepairHits
		sum.RepairFallbacks += rep.RepairFallbacks
		sum.AttachOps += rep.AttachOps
		sum.SwapOps += rep.SwapOps
	}
	for _, v := range []int{
		sum.Probes, sum.Replacements, sum.KeptNew, sum.DeferredCuts, sum.Abandoned, sum.Repairs,
		sum.ProbeRetries, sum.ProbeTimeouts, sum.StaleMarked, sum.StaleExpired, sum.BlacklistHits,
		sum.FailedConnects, sum.PurgedEdges, sum.MergeSegments, sum.MergeSerialFallbacks,
		sum.RepairHits, sum.RepairFallbacks, sum.AttachOps, sum.SwapOps,
	} {
		put(uint64(v))
	}
	put(math.Float64bits(sum.ProbeTraffic))
	put(math.Float64bits(sum.ExchangeCost))
	return fmt.Sprintf("%016x", h.Sum64())
}

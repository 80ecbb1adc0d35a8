package gnutella

import (
	"container/heap"
	"math"
	"testing"
	"time"

	"ace/internal/graph"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
)

// seqEvent is one entry of the container/heap reference: the pop order
// the kernel's event queue must reproduce is (at, seq).
type seqEvent struct {
	at  time.Duration
	seq int32
}

type seqHeap []seqEvent

func (h seqHeap) Len() int { return len(h) }
func (h seqHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h seqHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *seqHeap) Push(x any)   { *h = append(*h, x.(seqEvent)) }
func (h *seqHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// queueOp is one step of a queue check: a push at time at, or a pop.
type queueOp struct {
	pop bool
	at  time.Duration
}

// checkQueue runs ops through q and the reference, then drains both,
// failing on the first pop whose time or body differs. Each push
// carries its sequence number in the body, so a body mismatch is an
// order mismatch among equal times.
func checkQueue(t testing.TB, q *eventQueue, ops []queueOp) {
	t.Helper()
	q.reset()
	var ref seqHeap
	var seq int32
	pop := func(i int) {
		at, f := q.pop()
		want := heap.Pop(&ref).(seqEvent)
		if at != want.at || f.to != want.seq || f.ttl != int32(want.at%1000) {
			t.Fatalf("op %d: popped (%d, seq %d), want (%d, seq %d)", i, at, f.to, want.at, want.seq)
		}
	}
	for i, op := range ops {
		if op.pop {
			if ref.Len() > 0 {
				pop(i)
			}
			continue
		}
		q.push(op.at, flight{to: seq, from: -seq, toPos: -1, launch: -1, ttl: int32(op.at % 1000)})
		heap.Push(&ref, seqEvent{at: op.at, seq: seq})
		seq++
		if q.len() != ref.Len() {
			t.Fatalf("op %d: len %d, want %d", i, q.len(), ref.Len())
		}
	}
	for ref.Len() > 0 {
		pop(len(ops))
	}
	if q.len() != 0 {
		t.Fatalf("drained reference, queue still holds %d", q.len())
	}
	if q.pushes != int(seq) {
		t.Fatalf("pushes = %d, want %d", q.pushes, seq)
	}
}

// TestEventQueueMatchesHeap drives the radix queue through flood-like
// random schedules — pushes at or after the last pop, with many equal
// times, delays past the 2⁴⁰ ns the old packed keys could hold, and
// rare pushes before the last pop — and checks every pop against
// container/heap on (at, seq). One queue serves every schedule, so
// reuse across resets is covered too.
func TestEventQueueMatchesHeap(t *testing.T) {
	rng := sim.NewRNG(151)
	var q eventQueue
	regimes := []struct {
		name  string
		delay func() time.Duration
	}{
		{"ties", func() time.Duration { return time.Duration(rng.Intn(3)) }},
		{"ms", func() time.Duration { return time.Duration(rng.Intn(50_000_000)) }},
		{"wide", func() time.Duration { return time.Duration(rng.Int63n(1 << 50)) }},
		{"mixed", func() time.Duration {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return time.Duration(rng.Intn(1000))
			case 2:
				return time.Duration(rng.Int63n(1 << 45))
			}
			return time.Duration(rng.Intn(1 << 20))
		}},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			for _, base := range []time.Duration{0, 1 << 40, 1 << 61} {
				for iter := 0; iter < 20; iter++ {
					var ops []queueOp
					last := base
					for i := 0; i < 2000; i++ {
						switch r := rng.Intn(100); {
						case r < 40:
							ops = append(ops, queueOp{pop: true})
						case r < 42:
							// Before the last pop, as HPF's float clock can.
							at := last - time.Duration(rng.Intn(3))
							ops = append(ops, queueOp{at: max(at, 0)})
						default:
							at := last + rg.delay()
							ops = append(ops, queueOp{at: at})
							if rng.Intn(8) == 0 {
								last = at
							}
						}
					}
					checkQueue(t, &q, ops)
				}
			}
		})
	}
}

// FuzzEventQueue checks the radix queue's pop order against
// container/heap on (at, seq) for arbitrary schedules. Each input byte
// is one operation: its low two bits pick a pop, a push a few
// nanoseconds after the last pushed time (equal times included), a push
// up to 2⁴⁵ ns later (past the old 2⁴⁰ ns packing limit), or a push
// before it.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 1, 5, 0, 0, 0})
	f.Add([]byte{2, 6, 10, 0, 3, 7, 0, 0, 1, 0})
	f.Add([]byte{9, 13, 4, 0, 251, 0, 3, 2, 0, 0, 0})
	f.Add([]byte{254, 250, 246, 0, 7, 11, 15, 0, 0, 0, 2, 1, 0})
	var q eventQueue
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]queueOp, 0, len(data))
		var at time.Duration
		for _, b := range data {
			v := time.Duration(b >> 2)
			switch b & 3 {
			case 0:
				ops = append(ops, queueOp{pop: true})
				continue
			case 1:
				at += v % 4
			case 2:
				at += v << 39
			case 3:
				at = max(at-v, 0)
			}
			ops = append(ops, queueOp{at: at})
		}
		checkQueue(t, &q, ops)
	})
}

// referenceHPF is HybridPeriodicalFlood on a container/heap event queue
// keyed on (at, seq), with maps for the per-query state. It also reports
// how many pushes landed before the last pop.
func referenceHPF(net *overlay.Network, rng *sim.RNG, src overlay.PeerID, ttl, fanout, period int, responders map[overlay.PeerID]bool) (QueryResult, int) {
	type msg struct {
		from, to overlay.PeerID
		hop      int
	}
	var q seqHeap
	var msgs []msg
	var last time.Duration
	early := 0
	res := QueryResult{Scope: 1, FirstResponse: math.Inf(1), Arrival: map[overlay.PeerID]float64{src: 0}}
	if responders[src] {
		res.FirstResponse = 0
	}
	pathCost := map[overlay.PeerID]float64{src: 0}
	var targets []overlay.PeerID
	forward := func(at float64, p, from overlay.PeerID, hop int) {
		if hop >= ttl {
			return
		}
		targets = targets[:0]
		for _, n := range net.NeighborsView(p) {
			if n != from {
				targets = append(targets, n)
			}
		}
		if hop%period != 0 && len(targets) > fanout {
			rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
			targets = targets[:fanout]
		}
		for _, n := range targets {
			c := net.Cost(p, n)
			res.TrafficCost += c
			res.Transmissions++
			d := delayDur(at + c)
			if d < last {
				early++
			}
			heap.Push(&q, seqEvent{at: d, seq: int32(len(msgs))})
			msgs = append(msgs, msg{from: p, to: n, hop: hop + 1})
		}
	}
	forward(0, src, -1, 0)
	for q.Len() > 0 {
		e := heap.Pop(&q).(seqEvent)
		last = e.at
		m := msgs[e.seq]
		atMS := float64(e.at) / msPerDur
		if _, ok := res.Arrival[m.to]; ok {
			res.Duplicates++
			continue
		}
		res.Scope++
		res.Arrival[m.to] = atMS
		pathCost[m.to] = net.Cost(m.to, m.from) + pathCost[m.from]
		if responders[m.to] {
			if rt := atMS + pathCost[m.to]; rt < res.FirstResponse {
				res.FirstResponse = rt
			}
		}
		forward(atMS, m.to, m.from, m.hop)
	}
	return res, early
}

// TestHPFZeroDelayLinkKeepsOrder floods HPF over a physical line whose
// links alternate between zero and irregular fractional delays. HPF
// schedules a hop at delayDur(arrival in ms + delay); across a
// zero-delay link the float round trip can land 1 ns before the time
// just popped, so the kernel's queue must re-bucket instead of assuming
// monotone pushes. The flood must equal the container/heap reference
// exactly, and the fixture must actually produce such early pushes.
func TestHPFZeroDelayLinkKeepsOrder(t *testing.T) {
	const n = 60
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		w := 0.0
		if i%3 != 0 {
			w = 0.1 + float64(i*7919%1000)/997.0
		}
		g.AddEdge(i, i+1, w)
	}
	attach := make([]int, n)
	for i := range attach {
		attach[i] = i
	}
	net, err := overlay.NewNetwork(physical.NewOracle(g, 0), attach)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(0)
	for p := 0; p < n; p++ {
		net.Join(rng, overlay.PeerID(p), 0)
	}
	for p := 0; p+1 < n; p++ {
		net.Connect(overlay.PeerID(p), overlay.PeerID(p+1))
		if p+5 < n && p%4 == 1 {
			net.Connect(overlay.PeerID(p), overlay.PeerID(p+5))
		}
	}
	responders := map[overlay.PeerID]bool{17: true, 42: true}
	early := 0
	for _, src := range []overlay.PeerID{0, 13, 29, 59} {
		for _, period := range []int{1, 2} {
			got := HybridPeriodicalFlood(net, sim.NewRNG(int64(src)), src, 64, 2, period, HPFRandom, responders)
			want, e := referenceHPF(net, sim.NewRNG(int64(src)), src, 64, 2, period, responders)
			early += e
			if got.Scope != want.Scope || got.Transmissions != want.Transmissions || got.Duplicates != want.Duplicates ||
				got.TrafficCost != want.TrafficCost || got.FirstResponse != want.FirstResponse {
				t.Fatalf("src %d period %d: got %+v, want %+v", src, period, got, want)
			}
			if len(got.Arrival) != len(want.Arrival) {
				t.Fatalf("src %d period %d: %d arrivals, want %d", src, period, len(got.Arrival), len(want.Arrival))
			}
			for p, at := range want.Arrival {
				if got.Arrival[p] != at {
					t.Fatalf("src %d period %d: peer %d arrived at %v, want %v", src, period, p, got.Arrival[p], at)
				}
			}
		}
	}
	if early == 0 {
		t.Fatal("fixture produced no push before the last pop; the re-bucketing path went untested")
	}
}

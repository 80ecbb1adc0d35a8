package gnutella

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/obs/tracer"
	"ace/internal/overlay"
)

// Kernel is the flat query-flood engine: one reusable arena holding every
// piece of per-query state on epoch-stamped dense arrays indexed by peer,
// a radix event queue with inline message bodies, and the forwarding
// scratch, whose launch arena recycles its chunks across queries.
// Acquiring a kernel once and flooding many queries through it performs
// O(1) heap allocations per query once its buffers have grown to the
// flood's size.
//
// A kernel is single-threaded; parallel evaluators use one kernel per
// worker (see AcquireKernel). The exported surface doubles as the
// building kit for flood variants in other packages (index caching in
// internal/cache drives the same loop with its own delivery rules).
type Kernel struct {
	net  *overlay.Network
	fwd  core.Forwarder
	sfwd core.ScratchForwarder // non-nil when fwd supports the scratch path
	fsc  core.FloodScratch

	// Per-peer query state, valid when stamp equals the current epoch:
	// arrival time, memoized cumulative inverse-path cost, and the
	// arrival link (the Gnutella QueryHit route). One struct per peer, so
	// an arrival touches a single cache line instead of four arrays.
	epoch   uint32
	arrMark []uint32
	arr     []arrivalState
	order   []overlay.PeerID // arrival order, source first

	// Per-(peer, tree) continuation dedup: a peer forwards each tree tag
	// at most once. The first tag a peer serves lives in its flat served
	// slot — almost every peer serves exactly one tree — and only the
	// rare extras spill into servedTrees[p] (reset lazily per epoch); the
	// lists are tiny, so a linear scan beats any map.
	served      []servedState
	servedTrees [][]overlay.PeerID

	// respMark is the epoch-stamped responder set, so the per-arrival
	// responder check is one array load instead of a map probe.
	respMark []uint32

	// The event queue: a monotone radix queue keyed on arrival time with
	// the message bodies stored inline (see eventQueue). Launches are
	// interned in their own table — one entry per (emit, tree) batch —
	// instead of being embedded per message.
	queue    eventQueue
	launches []launchRef
	sends    []core.Send // reusable ForwardInto target

	scope         int
	transmissions int
	duplicates    int
	traffic       float64

	// Fault state for this flood: the network's injector (nil on clean
	// runs), the per-flood loss nonce, and the hazard flag that gates
	// dead-letter checks (set when an injector is attached or crash
	// debris can leave dead peers in an adjacency). Senders pay for lost
	// messages — the delivery just never happens.
	inj         *fault.Injector
	nonce       uint64
	hazard      bool
	lost        int
	deadLetters int

	tracing bool
	hops    []Hop

	// Causal-trace sink: one "flood" ring per pooled kernel (kernels are
	// single-threaded, so the ring is never contended), re-acquired per
	// query when the tracer's enable generation moved. tguid is this
	// query's process-wide GUID; events carry it so the analyzer can
	// stitch per-query timelines out of interleaved floods.
	tring  *tracer.Ring
	tgen   uint64
	tguid  uint64
	tround int32
}

// flight is one scheduled message body. Populations stay far below 2³¹
// peers. The serving tree lives in the launch table entry; toPos is the
// target's position within that launch's adjacency (-1 for blind
// copies).
type flight struct {
	to     int32
	from   int32
	toPos  int32
	launch int32
	ttl    int32
}

// eventQueue is a monotone radix queue over arrival times, with every
// message body stored inline in its bucket (no side payload array, no
// packed keys, no range limits). Bucket i holds the events whose time
// first differs from last — the time of the last pop — in bit i-1
// (bucket 0: equal to last), so bucket 0 is exactly the set of events
// due now and the smallest non-empty bucket above it holds the next
// time.
//
// The order it pops is the lexicographic (at, seq) order of a heap over
// arrival time and push sequence, without storing seq: all events of
// one time sit in one bucket (the index is a function of the time), and
// within a bucket they stay in push order, because pushes append and a
// redistribution moves a whole bucket, in order, into buckets below it
// that are empty. Bucket 0 is popped first-in first-out.
//
// Times must be non-negative. A push before last — HPF converts its
// clock through float milliseconds, so a zero-delay hop can land 1 ns
// early — re-buckets every queued event around the new time, keeping
// the exact order.
type eventQueue struct {
	last   time.Duration
	n      int
	head   int    // popped prefix of b[0]
	occ    uint64 // bit i set when b[i] is non-empty, for i >= 1
	pushes int    // pushes since reset, for the heap.pushes counter
	b      [64][]event
	tmp    []event // re-bucketing scratch
}

// event is one queued message: its arrival time and its body.
type event struct {
	at time.Duration
	flight
}

func (q *eventQueue) reset() {
	for i := range q.b {
		q.b[i] = q.b[i][:0]
	}
	q.last, q.n, q.head, q.occ, q.pushes = 0, 0, 0, 0, 0
}

func (q *eventQueue) len() int { return q.n }

func (q *eventQueue) push(at time.Duration, f flight) {
	if at < q.last {
		q.rebucket(at)
	}
	i := bits.Len64(uint64(at ^ q.last))
	q.b[i] = append(q.b[i], event{at: at, flight: f})
	q.occ |= 1 << i
	q.n++
	q.pushes++
}

// pop removes the earliest event; the queue must be non-empty.
func (q *eventQueue) pop() (time.Duration, flight) {
	if q.head == len(q.b[0]) {
		q.b[0], q.head = q.b[0][:0], 0
		// The smallest non-empty bucket holds the next time; every event
		// in it shares the bits above its index with that time, so each
		// lands in a lower, empty bucket.
		i := bits.TrailingZeros64(q.occ &^ 1)
		src := q.b[i]
		next := src[0].at
		for _, e := range src[1:] {
			if e.at < next {
				next = e.at
			}
		}
		q.last = next
		for _, e := range src {
			j := bits.Len64(uint64(e.at ^ next))
			q.b[j] = append(q.b[j], e)
			q.occ |= 1 << j
		}
		q.b[i] = src[:0]
		q.occ &^= 1 << i
	}
	e := &q.b[0][q.head]
	q.head++
	q.n--
	return e.at, e.flight
}

// rebucket lowers last to at and redistributes every queued event.
// Events leave each bucket in order, and all events of one time come
// from one bucket, so equal times keep their push order.
func (q *eventQueue) rebucket(at time.Duration) {
	all := append(q.tmp[:0], q.b[0][q.head:]...)
	q.b[0], q.head = q.b[0][:0], 0
	for i := 1; i < len(q.b); i++ {
		all = append(all, q.b[i]...)
		q.b[i] = q.b[i][:0]
	}
	q.last, q.occ = at, 0
	for _, e := range all {
		j := bits.Len64(uint64(e.at ^ at))
		q.b[j] = append(q.b[j], e)
		q.occ |= 1 << j
	}
	q.tmp = all[:0]
}

type launchRef struct {
	adj     *core.TreeAdj
	covered *core.CoveredSet
	tree    overlay.PeerID
}

// arrivalState is one peer's per-query arrival record, valid when the
// peer's arrMark stamp equals the kernel's epoch. The hot per-delivery
// membership test reads only the 4-byte stamp array; the record itself
// is touched once per arrival.
type arrivalState struct {
	arrMS    float64
	pathCost float64
	back     overlay.PeerID
}

// servedState is one peer's first served tree tag, valid when mark
// equals the kernel's epoch; extra tags spill into servedTrees.
type servedState struct {
	mark  uint32
	first overlay.PeerID
}

// Flight is one delivered query transmission. ToPos is the target's
// position within Adj (-1 for blind copies).
type Flight struct {
	At      time.Duration
	To      overlay.PeerID
	From    overlay.PeerID
	Serving overlay.PeerID
	ToPos   int32
	Adj     *core.TreeAdj
	Covered *core.CoveredSet
	TTL     int
}

// NewKernel returns an empty kernel. Callers that flood repeatedly
// should reuse it (or use AcquireKernel/ReleaseKernel) so the arenas
// amortize.
func NewKernel() *Kernel { return &Kernel{} }

var kernelPool = sync.Pool{New: func() any { cKernelAllocs.Inc(); return NewKernel() }}

// AcquireKernel takes a kernel from the shared pool.
func AcquireKernel() *Kernel {
	cKernelAcquires.Inc()
	return kernelPool.Get().(*Kernel)
}

// ReleaseKernel returns a kernel to the shared pool.
func ReleaseKernel(k *Kernel) {
	k.net, k.fwd, k.sfwd = nil, nil, nil
	kernelPool.Put(k)
}

// Begin readies the kernel for one query over net with the given
// forwarder (which may be nil for engines that push raw transmissions).
// All per-query state from the previous flood is invalidated in O(1) via
// the epoch stamp; retained launch references are dropped.
func (k *Kernel) Begin(net *overlay.Network, fwd core.Forwarder, trace bool) {
	k.net, k.fwd = net, fwd
	k.sfwd, _ = fwd.(core.ScratchForwarder)
	n := net.N()
	if len(k.arr) < n {
		k.arrMark = make([]uint32, n)
		k.arr = make([]arrivalState, n)
		k.served = make([]servedState, n)
		k.servedTrees = make([][]overlay.PeerID, n)
		k.respMark = make([]uint32, n)
		k.epoch = 0
	}
	k.epoch++
	if k.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(k.arrMark)
		clear(k.served)
		clear(k.respMark)
		k.epoch = 1
	}
	k.order = k.order[:0]
	k.queue.reset()
	for i := range k.launches {
		k.launches[i] = launchRef{} // release the trees of the last flood
	}
	k.launches = k.launches[:0]
	// A query boundary is a hard lifetime boundary for everything the
	// scratch arena handed to the previous flood, so recycle it.
	k.fsc.BeginQuery()
	k.scope, k.transmissions, k.duplicates = 0, 0, 0
	k.traffic = 0
	k.inj = net.Faults()
	k.nonce = 0
	k.hazard = k.inj != nil || net.Dangling() > 0
	k.lost, k.deadLetters = 0, 0
	k.tracing = trace
	k.hops = k.hops[:0]
	if tracer.On() {
		t := tracer.Default()
		if g := t.Gen(); g != k.tgen || k.tring == nil {
			k.tgen = g
			k.tring = t.NewRing("flood")
		}
		k.tguid = t.NextQueryID()
		k.tround = t.RoundSeq()
	} else {
		k.tring = nil
		k.tguid = 0
	}
}

// trace records one causal-trace event carrying this query's GUID; a
// no-op (one predicted branch) while tracing is off.
func (k *Kernel) trace(kind tracer.Kind, a, b int32, v float64) {
	if k.tring == nil {
		return
	}
	k.tring.Record(tracer.Event{
		TS: tracer.Default().Now(), GUID: k.tguid, Round: k.tround,
		Kind: kind, A: a, B: b, V: v,
	})
}

// TraceGUID returns the query GUID minted by the last Begin (0 while
// tracing is off).
func (k *Kernel) TraceGUID() uint64 { return k.tguid }

// Arrived reports whether p has received its first copy of the query.
func (k *Kernel) Arrived(p overlay.PeerID) bool { return k.arrMark[p] == k.epoch }

// Arrive records p's first copy, arriving from `from` (-1 for the
// source) at virtual time at. The cumulative inverse-path cost is
// memoized here — extending the sender's by one hop — so later hits
// answer ReturnTime in O(1) instead of re-walking the path.
func (k *Kernel) Arrive(p, from overlay.PeerID, at time.Duration) {
	k.arrMark[p] = k.epoch
	a := &k.arr[p]
	a.arrMS = float64(at) / msPerDur
	a.back = from
	if k.tring != nil {
		if from < 0 {
			k.trace(tracer.KindQueryBegin, int32(p), -1, 0)
		} else {
			k.trace(tracer.KindQueryArrive, int32(p), int32(from), a.arrMS)
		}
	}
	if from < 0 {
		a.pathCost = 0
		k.nonce = fault.Nonce(uint64(p)) // per-flood loss stream, from the source
	} else if cv, ok := k.net.CostsFromCached(p); ok {
		// Same vector Cost(p, from) would prefer — one lock-free load.
		a.pathCost = cv.To(from) + k.arr[from].pathCost
	} else {
		a.pathCost = k.net.Cost(p, from) + k.arr[from].pathCost
	}
	k.order = append(k.order, p)
	k.scope++
}

// Duplicate counts a delivery to an already-visited peer.
func (k *Kernel) Duplicate() { k.duplicates++ }

// MarkResponders stamps the responder set into the kernel's dense
// mirror; call it once after Begin so IsResponder answers without a map
// probe. Marking is order-independent, so the map's iteration order
// cannot leak into results.
func (k *Kernel) MarkResponders(responders map[overlay.PeerID]bool) {
	for p, ok := range responders {
		if ok && int(p) < len(k.respMark) {
			k.respMark[p] = k.epoch
		}
	}
}

// IsResponder reports whether p was marked by MarkResponders.
func (k *Kernel) IsResponder(p overlay.PeerID) bool { return k.respMark[p] == k.epoch }

// ArrivalMS returns p's arrival time in milliseconds (0 when not
// arrived).
func (k *Kernel) ArrivalMS(p overlay.PeerID) float64 {
	if !k.Arrived(p) {
		return 0
	}
	return k.arr[p].arrMS
}

// ReturnTime returns the memoized cost of the inverse query path from p
// back to the source (+Inf when p was never reached).
func (k *Kernel) ReturnTime(p overlay.PeerID) float64 {
	if !k.Arrived(p) {
		return math.Inf(1)
	}
	return k.arr[p].pathCost
}

// Back returns the peer p received its first copy from, reporting false
// for the source (which has no inverse hop) and unreached peers.
func (k *Kernel) Back(p overlay.PeerID) (overlay.PeerID, bool) {
	if !k.Arrived(p) || k.arr[p].back < 0 {
		return -1, false
	}
	return k.arr[p].back, true
}

// Scope reports how many peers have received the query.
func (k *Kernel) Scope() int { return k.scope }

// Transmissions reports individual message sends so far.
func (k *Kernel) Transmissions() int { return k.transmissions }

// Duplicates reports deliveries to already-visited peers so far.
func (k *Kernel) Duplicates() int { return k.duplicates }

// Traffic reports the accumulated physical delay cost of every send.
func (k *Kernel) Traffic() float64 { return k.traffic }

// Served reports whether p has already forwarded tree's tag this query.
// Evaluators use it to skip the forwarder entirely on duplicate
// deliveries whose continuation Emit would drop anyway — the sends are
// never computed instead of computed and discarded.
func (k *Kernel) Served(p, tree overlay.PeerID) bool { return k.servedHas(p, tree) }

func (k *Kernel) servedHas(p, tree overlay.PeerID) bool {
	sv := k.served[p]
	if sv.mark != k.epoch {
		return false
	}
	if sv.first == tree {
		return true
	}
	for _, t := range k.servedTrees[p] {
		if t == tree {
			return true
		}
	}
	return false
}

func (k *Kernel) servedAdd(p, tree overlay.PeerID) {
	sv := &k.served[p]
	if sv.mark != k.epoch {
		sv.mark = k.epoch
		sv.first = tree
		k.servedTrees[p] = k.servedTrees[p][:0]
		return
	}
	if !k.servedHas(p, tree) {
		k.servedTrees[p] = append(k.servedTrees[p], tree)
	}
}

// ForwardOf asks the forwarder for p's transmissions, using the
// allocation-free scratch path when the forwarder supports it. The
// returned slice is reused by the next call — consume it before then.
func (k *Kernel) ForwardOf(src, p, from, serving overlay.PeerID, adj *core.TreeAdj, pPos int32, covered *core.CoveredSet, first bool) []core.Send {
	if k.sfwd != nil {
		k.sends = k.sfwd.ForwardInto(&k.fsc, k.sends[:0], src, p, from, serving, adj, pPos, covered, first)
		return k.sends
	}
	return k.fwd.Forward(src, p, from, serving, adj, covered, first)
}

// Emit sends a forward batch from `from` at virtual time at, enforcing
// the per-(peer, tree) continuation dedup, accounting traffic, and
// scheduling each delivery after its link's physical delay.
// Sends of one tree form a contiguous run and distinct runs in one batch
// carry distinct trees (a forwarder emits at most one continuation run
// plus one launch run, and a peer never launches the tree it is
// continuing), so the dedup check, the launch-table entry, and the served
// mark each happen once per run rather than once per send.
func (k *Kernel) Emit(at time.Duration, from overlay.PeerID, sends []core.Send, ttl int) {
	// Memoized tree costs price almost every send; the first send
	// without one fetches this sender's cached-vector view for the rest
	// of the batch, and the fallback keeps bit-identical values when the
	// vector is cold.
	var cv overlay.CostView
	cvOK, cvFetched := false, false
	tx0 := k.transmissions
	for i := 0; i < len(sends); {
		tree := sends[i].Tree
		if tree != core.NoTree && k.servedHas(from, tree) {
			for i++; i < len(sends) && sends[i].Tree == tree; i++ {
			}
			continue
		}
		idx := int32(-1)
		if tree != core.NoTree {
			k.launches = append(k.launches, launchRef{adj: sends[i].Adj, covered: sends[i].Covered, tree: tree})
			idx = int32(len(k.launches) - 1)
		}
		for ; i < len(sends) && sends[i].Tree == tree; i++ {
			s := &sends[i]
			var c float64
			if s.Cost >= 0 {
				// Memoized sender-side edge delay — same float the view
				// lookup would produce, without touching the vector.
				c = float64(s.Cost)
			} else {
				if !cvFetched {
					cv, cvOK = k.net.CostsFromCached(from)
					cvFetched = true
				}
				if cvOK {
					c = cv.To(s.To)
				} else {
					c = k.net.Cost(from, s.To)
				}
			}
			k.traffic += c
			k.transmissions++
			if k.tracing {
				k.hops = append(k.hops, Hop{From: from, To: s.To, Cost: c, SentAt: float64(at) / msPerDur})
			}
			if k.inj != nil {
				// The sender already paid for the transmission; a lost
				// message is simply never delivered, and a delivered one
				// may arrive off its nominal delay.
				seq := uint32(k.transmissions)
				if k.inj.DropMessage(k.nonce, int(from), int(s.To), seq) {
					k.lost++
					if k.tring != nil {
						k.trace(tracer.KindQueryDrop, int32(from), int32(s.To), float64(at)/msPerDur)
					}
					continue
				}
				c = k.inj.TransitDelay(c, k.nonce, int(from), int(s.To), seq)
			}
			k.queue.push(at+delayDur(c), flight{to: int32(s.To), from: int32(from), toPos: s.ToPos, launch: idx, ttl: int32(ttl)})
		}
		if tree != core.NoTree {
			k.servedAdd(from, tree)
		}
	}
	if k.tring != nil {
		if sent := k.transmissions - tx0; sent > 0 {
			k.trace(tracer.KindQueryForward, int32(from), int32(sent), float64(at)/msPerDur)
		}
	}
}

// Push schedules one raw tree-less transmission at absolute virtual time
// at, without cost accounting — for engines (HPF) that do their own.
func (k *Kernel) Push(at time.Duration, from, to overlay.PeerID, ttl int) {
	k.queue.push(at, flight{to: int32(to), from: int32(from), toPos: -1, launch: -1, ttl: int32(ttl)})
}

// Next pops the earliest in-flight transmission, reporting false when
// the flood has drained.
func (k *Kernel) Next() (Flight, bool) {
	if k.queue.len() == 0 {
		return Flight{}, false
	}
	at, m := k.queue.pop()
	f := Flight{At: at, To: overlay.PeerID(m.to), From: overlay.PeerID(m.from), Serving: core.NoTree, ToPos: m.toPos, TTL: int(m.ttl)}
	if m.launch >= 0 {
		l := &k.launches[m.launch]
		f.Serving, f.Adj, f.Covered = l.tree, l.adj, l.covered
	}
	return f, true
}

// DeadLetter reports whether a delivery to p must be dropped because p
// is dead — crash debris left p in an adjacency or multicast tree built
// before it died. The sender already paid for the transmission. Clean
// floods pay one predicted branch on the hazard flag.
func (k *Kernel) DeadLetter(p overlay.PeerID) bool {
	if !k.hazard || k.net.Alive(p) {
		return false
	}
	k.deadLetters++
	return true
}

// Lost reports how many of this flood's messages were lost in transit.
func (k *Kernel) Lost() int { return k.lost }

// DeadLetters reports how many deliveries were dropped because the
// target had died.
func (k *Kernel) DeadLetters() int { return k.deadLetters }

// ArrivalMap materializes the public Arrival map from the dense arrays.
func (k *Kernel) ArrivalMap() map[overlay.PeerID]float64 {
	m := make(map[overlay.PeerID]float64, len(k.order))
	for _, p := range k.order {
		m[p] = k.arr[p].arrMS
	}
	return m
}

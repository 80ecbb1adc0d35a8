package gnutella

import (
	"math"
	"time"

	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/overlay"
	"ace/internal/sim"
)

// Engine is the message-level simulation of a Gnutella-like system: every
// query and query-hit is an individual message delivered over the virtual
// clock with the physical delay of the logical link it crosses. Peers may
// join and leave between (and during) floods; in-flight messages to dead
// peers are dropped, exactly as TCP connections tear down.
type Engine struct {
	Sim *sim.Engine
	Net *overlay.Network
	// Fwd picks each relay's forward set; swap BlindFlooding for
	// TreeForwarding to run the same workload over ACE.
	Fwd core.Forwarder
	// Horizon bounds how long a query's duplicate-suppression state is
	// retained after issue. Zero leaves retirement to the MaxQueries cap
	// alone.
	Horizon time.Duration
	// MaxQueries caps how many QueryStats the engine retains at once:
	// when a new query would exceed it, the oldest retained query is
	// evicted (its in-flight messages still deliver — they hold the
	// stats object directly — but the engine forgets it). Zero means
	// DefaultMaxQueries; negative means unlimited.
	MaxQueries int

	nextGUID  GUID
	evictNext GUID // lowest GUID possibly still retained
	queries   map[GUID]*QueryStats
	fsc       core.FloodScratch
	sends     []core.Send
}

// DefaultMaxQueries bounds Engine.queries when MaxQueries is unset: a
// long-lived engine no longer retains every GUID it ever issued.
const DefaultMaxQueries = 1024

// QueryStats accumulates the metrics of one query flood as its messages
// are delivered.
type QueryStats struct {
	GUID    GUID
	Src     overlay.PeerID
	Keyword int
	Issued  time.Duration

	Scope         int
	TrafficCost   float64
	Transmissions int
	Duplicates    int
	Dropped       int // deliveries to peers that left mid-flight
	Lost          int // transmissions the fault plan dropped in transit
	// ResponseTraffic is the query-hit return traffic, reported apart
	// from TrafficCost to stay comparable with Evaluate.
	ResponseTraffic float64
	// FirstResponse is the delay from issue to the first query hit
	// arriving back at the source; +Inf until then.
	FirstResponse float64
	Responses     int

	visited map[overlay.PeerID]bool
	served  map[uint64]bool                   // per-(peer, tree) continuation dedup
	back    map[overlay.PeerID]overlay.PeerID // inverse-path routing table
}

// NewEngine wires a message-level engine over the given simulator,
// network and forwarder.
func NewEngine(s *sim.Engine, net *overlay.Network, fwd core.Forwarder) *Engine {
	return &Engine{Sim: s, Net: net, Fwd: fwd, queries: make(map[GUID]*QueryStats)}
}

// delayDur converts a physical cost (milliseconds of delay) to a virtual
// duration.
func delayDur(cost float64) time.Duration {
	return time.Duration(cost * float64(time.Millisecond))
}

// InjectQuery issues a query at the current virtual time from src. The
// responder callback decides, at delivery time, whether a peer holds the
// object — so churn and cache state are honoured. It returns the stats
// object, which keeps filling in as the simulation advances.
func (e *Engine) InjectQuery(src overlay.PeerID, ttl, keyword int, responder func(overlay.PeerID, int) bool) *QueryStats {
	guid := e.nextGUID
	e.nextGUID++
	qs := &QueryStats{
		GUID: guid, Src: src, Keyword: keyword,
		Issued:        e.Sim.Now(),
		FirstResponse: math.Inf(1),
		visited:       map[overlay.PeerID]bool{},
		served:        map[uint64]bool{},
		back:          map[overlay.PeerID]overlay.PeerID{},
	}
	e.queries[guid] = qs
	if e.Horizon > 0 {
		e.Sim.After(e.Horizon, func() { delete(e.queries, guid) })
	}
	if cap := e.maxQueries(); cap > 0 {
		for len(e.queries) > cap {
			for e.evictNext < guid {
				_, ok := e.queries[e.evictNext]
				delete(e.queries, e.evictNext)
				e.evictNext++
				if ok {
					break
				}
			}
		}
	}
	if !e.Net.Alive(src) {
		return qs
	}
	qs.visited[src] = true
	qs.Scope = 1
	if responder != nil && responder(src, keyword) {
		qs.FirstResponse = 0
		qs.Responses++
	}
	if ttl > 0 {
		e.emit(qs, src, e.forwardOf(src, src, -1, core.NoTree, nil, -1, nil, true), ttl-1, responder)
	}
	return qs
}

func (e *Engine) maxQueries() int {
	if e.MaxQueries == 0 {
		return DefaultMaxQueries
	}
	if e.MaxQueries < 0 {
		return 0
	}
	return e.MaxQueries
}

// forwardOf asks the forwarder for p's transmissions through the
// engine-owned scratch when the forwarder supports it, so per-hop set
// bookkeeping stops allocating. No arena is armed: engine queries
// interleave on the virtual clock, so there is no drain boundary at
// which arena memory could be reclaimed — launch views stay
// individually heap-allocated and live as long as messages hold them.
// The returned slice is reused by the next call; emit copies each Send
// into its scheduled closure before then.
func (e *Engine) forwardOf(src, p, from, serving overlay.PeerID, adj *core.TreeAdj, pPos int32, covered *core.CoveredSet, first bool) []core.Send {
	if sfwd, ok := e.Fwd.(core.ScratchForwarder); ok {
		e.sends = sfwd.ForwardInto(&e.fsc, e.sends[:0], src, p, from, serving, adj, pPos, covered, first)
		return e.sends
	}
	return e.Fwd.Forward(src, p, from, serving, adj, covered, first)
}

// emit sends a forward batch, enforcing the per-(peer, tree)
// continuation dedup. The sender's own launch (the sends tagged with its
// id) carries a view over its PeerState, which a rebuild between
// deliveries may recycle, so the messages get one detached copy per
// batch.
func (e *Engine) emit(qs *QueryStats, from overlay.PeerID, sends []core.Send, ttl int, responder func(overlay.PeerID, int) bool) {
	var launch, adj *core.TreeAdj
	var covered *core.CoveredSet
	for _, s := range sends {
		if s.Tree != core.NoTree && qs.served[treeKey(from, s.Tree)] {
			continue
		}
		if s.Tree == from {
			if s.Adj != launch {
				launch = s.Adj
				adj, covered = core.DetachLaunch(s.Adj, s.Covered)
			}
			s.Adj, s.Covered = adj, covered
		}
		e.sendQuery(qs, from, s, ttl, responder)
	}
	for _, s := range sends {
		if s.Tree != core.NoTree {
			qs.served[treeKey(from, s.Tree)] = true
		}
	}
}

func (e *Engine) sendQuery(qs *QueryStats, from overlay.PeerID, s core.Send, ttl int, responder func(overlay.PeerID, int) bool) {
	c := e.Net.Cost(from, s.To)
	qs.TrafficCost += c
	qs.Transmissions++
	if inj := e.Net.Faults(); inj != nil {
		// The GUID is the flood nonce: the engine pays for the send,
		// then the plan decides whether the copy survives the link.
		seq := uint32(qs.Transmissions)
		if inj.DropMessage(fault.Nonce(uint64(qs.GUID)), int(from), int(s.To), seq) {
			qs.Lost++
			return
		}
		c = inj.TransitDelay(c, fault.Nonce(uint64(qs.GUID)), int(from), int(s.To), seq)
	}
	e.Sim.After(delayDur(c), func() { e.deliverQuery(qs, from, s, ttl, responder) })
}

func (e *Engine) deliverQuery(qs *QueryStats, from overlay.PeerID, s core.Send, ttl int, responder func(overlay.PeerID, int) bool) {
	to := s.To
	if !e.Net.Alive(to) {
		qs.Dropped++
		return
	}
	first := !qs.visited[to]
	if first {
		qs.visited[to] = true
		qs.back[to] = from
		qs.Scope++
		if responder != nil && responder(to, qs.Keyword) {
			e.sendHit(qs, to, from)
		}
	} else {
		qs.Duplicates++
	}
	if ttl <= 0 {
		return
	}
	e.emit(qs, to, e.forwardOf(qs.Src, to, from, s.Tree, s.Adj, s.ToPos, s.Covered, first), ttl-1, responder)
}

// sendHit routes a query hit one hop backwards along the inverse query
// path (the Gnutella response rule, §3.1).
func (e *Engine) sendHit(qs *QueryStats, from, to overlay.PeerID) {
	c := e.Net.Cost(from, to)
	qs.ResponseTraffic += c
	e.Sim.After(delayDur(c), func() {
		if !e.Net.Alive(to) {
			return // responder path broke; hit is lost
		}
		if to == qs.Src {
			if rt := float64(e.Sim.Now()-qs.Issued) / float64(time.Millisecond); rt < qs.FirstResponse {
				qs.FirstResponse = rt
			}
			qs.Responses++
			return
		}
		prev, ok := qs.back[to]
		if !ok {
			return
		}
		e.sendHit(qs, to, prev)
	})
}

// PingRound refreshes peer p's host cache with the alive peers within two
// overlay hops, modelling the periodic Ping/Pong exchange of §1, and
// returns how many addresses were cached.
func (e *Engine) PingRound(p overlay.PeerID) int {
	if !e.Net.Alive(p) {
		return 0
	}
	var addrs []overlay.PeerID
	for _, q := range e.Net.NeighborsView(p) {
		addrs = append(addrs, q)
		for _, r := range e.Net.NeighborsView(q) {
			if r != p && !e.Net.HasEdge(p, r) {
				addrs = append(addrs, r)
			}
		}
	}
	e.Net.CacheAddresses(p, addrs)
	return len(addrs)
}

// Queries returns the live query-stats table (for inspection in tests).
func (e *Engine) Queries() map[GUID]*QueryStats { return e.queries }

package main

import (
	"ace/internal/overlay"
	"ace/internal/sim"
)

// stepInput is everything one service step consumes from outside the
// system: which peers depart (and whether each crashes), which dead
// slots rejoin, the RNG stream the joins draw their neighbours from, and
// the query batch. The generator derives it from the workload seed
// alone, so the same seed replays the same inputs.
type stepInput struct {
	victims []overlay.PeerID
	crash   []bool
	rejoin  []overlay.PeerID
	joinRNG *sim.RNG
	queries []query
}

// query is one flood: a source and its single responder.
type query struct {
	src, responder overlay.PeerID
}

// generator turns the workload seed into per-step inputs. Draws are
// mapped onto the live and dead slot lists as they stand before the
// step, so the inputs are computed outside the timed region: rounds
// never change liveness, only churn does.
type generator struct {
	root *sim.RNG
}

func newGenerator(seed int64) *generator {
	return &generator{root: sim.NewRNG(seed).Derive("stepbench")}
}

// step draws step k's inputs for a network whose liveness is given by
// net: churn victims among the live peers, crash flags, rejoin slots
// among the slots that were already dead before this step (so a crashed
// peer's half-open links outlive at least one round), and the step's
// queries, whose sources and responders are live after the churn.
func (g *generator) step(k int, net *overlay.Network, w workload) stepInput {
	churn, crashFrac := w.churn, w.plan.CrashFraction
	rng := g.root.DeriveN("step", k)
	alive := net.AlivePeers()
	var dead []overlay.PeerID
	for p := 0; p < net.N(); p++ {
		if !net.Alive(overlay.PeerID(p)) {
			dead = append(dead, overlay.PeerID(p))
		}
	}
	in := stepInput{joinRNG: g.root.DeriveN("join", k)}
	for i := 0; i < churn && len(alive) > 2; i++ {
		j := rng.Intn(len(alive))
		in.victims = append(in.victims, alive[j])
		in.crash = append(in.crash, crashFrac > 0 && rng.Float64() < crashFrac)
		alive[j] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
	}
	for range in.victims {
		if len(dead) == 0 {
			break
		}
		j := rng.Intn(len(dead))
		in.rejoin = append(in.rejoin, dead[j])
		alive = append(alive, dead[j])
		dead[j] = dead[len(dead)-1]
		dead = dead[:len(dead)-1]
	}
	in.queries = drawQueries(rng, alive, w.queries)
	return in
}

// sample draws the untimed quality sample: n (source, responder) pairs
// over the live peers, from a stream of its own.
func (g *generator) sample(net *overlay.Network, n int) []query {
	return drawQueries(g.root.Derive("sample"), net.AlivePeers(), n)
}

func drawQueries(rng *sim.RNG, alive []overlay.PeerID, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = query{src: alive[rng.Intn(len(alive))], responder: alive[rng.Intn(len(alive))]}
	}
	return qs
}

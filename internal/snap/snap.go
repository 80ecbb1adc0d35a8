// Package snap is the crash-safe checkpoint layer: a versioned binary
// codec for the full engine state (overlay, optimizer, RNG stream
// positions, run metadata) plus a dual-slot on-disk store whose write
// path survives a SIGKILL at any instruction.
//
// The format is canonical — the same engine state always encodes to the
// same bytes — which is what lets the kill-recover harness compare a
// resumed run's final checkpoint bit-for-bit against an uninterrupted
// one. Nothing wall-clock-dependent (timestamps, hostnames, PIDs) is
// ever encoded.
//
// File layout:
//
//	magic "ACESNAP2"
//	4 sections, fixed order: META NETS OPTS RNGS
//	  each: tag(4) payloadLen(u64 LE) payload crc32c(payload)(4)
//	trailer: tag "TAIL" len(u64 LE) payload crc32c(4)
//	  payload: sectionCount(u32 LE) trailerOffset(u64 LE)
//
// A torn write truncates the trailer or a section, which the length
// fields catch; bit rot inside a section trips its CRC-32C. Either way
// Decode reports an error and the store falls back to the other slot.
package snap

import (
	"fmt"
	"hash/crc32"
	"slices"

	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/overlay"
)

// magic identifies the format and its version; a layout change bumps
// the trailing digit so older readers fail loudly instead of
// misdecoding. So does a change to the trajectory restored state replays
// into: resuming such a checkpoint would silently diverge from the run
// that wrote it (DESIGN.md §8, Versioning).
const magic = "ACESNAP2"

// Section tags, in the fixed file order.
const (
	tagMeta = "META"
	tagNet  = "NETS"
	tagOpt  = "OPTS"
	tagRNG  = "RNGS"
	tagTail = "TAIL"
)

// Snapshot is one complete engine checkpoint: everything history-
// dependent that is not derivable from (seed, configuration). Derived
// structures — peer states, reverse indexes, scratch arenas, the
// physical topology itself — are rebuilt on restore.
type Snapshot struct {
	Meta Meta
	// Net is the overlay state (attachments, liveness, adjacency, host
	// caches, journal window).
	Net *overlay.NetState
	// Opt is the optimizer state (cursor, fault era, pending cuts).
	Opt *core.OptState
	// RNGs records each named stream's consumed-word position; the
	// restorer re-derives the stream from the seed and fast-forwards.
	// Encode stores them sorted by name.
	RNGs []RNGPos
}

// RNGPos is one named RNG stream's position.
type RNGPos struct {
	Name string
	Pos  uint64
}

// Meta carries the run configuration the checkpoint was taken under and
// the cumulative counters that live outside the engine. Restore
// validates the relaunch flags against it: resuming under different
// parameters would silently fork the trajectory.
type Meta struct {
	// Step is how many optimization steps completed before the
	// checkpoint; it also orders the store's two slots.
	Step int64
	// Engine configuration (the acesim flags that shape the run).
	Seed          int64
	PhysicalNodes int64
	Peers         int64
	AvgDegree     int64
	Depth         int64
	Shards        int64
	Policy        int64
	Queries       int64
	ChurnPeers    int64
	// Fault schedule: the plan, when it attaches, and whether it was
	// already attached at checkpoint time.
	Plan          fault.Plan
	FaultOnset    int64
	FaultAttached bool
	// FaultBase is the injector's cumulative counters at checkpoint
	// time; a fresh injector restarts at zero, so the resumed run adds
	// these back before reporting totals.
	FaultBase fault.Stats
	// Baseline is the blind-flooding sample taken once at step 0, which
	// every later step's reduction percentages are computed against.
	Baseline Baseline
}

// Baseline is the step-0 blind-flooding measurement.
type Baseline struct {
	Traffic  float64
	Response float64
	Scope    float64
}

// Encode serializes the snapshot into the canonical byte form. The
// input is not mutated; RNG entries are sorted by name into the output.
func Encode(s *Snapshot) ([]byte, error) {
	if s.Net == nil || s.Opt == nil {
		return nil, fmt.Errorf("snap: encode: nil section")
	}
	rngs := slices.Clone(s.RNGs)
	slices.SortFunc(rngs, func(a, b RNGPos) int {
		if a.Name < b.Name {
			return -1
		} else if a.Name > b.Name {
			return 1
		}
		return 0
	})
	for i := 1; i < len(rngs); i++ {
		if rngs[i].Name == rngs[i-1].Name {
			return nil, fmt.Errorf("snap: encode: duplicate rng stream %q", rngs[i].Name)
		}
	}

	out := writer{buf: make([]byte, 0, encodeSizeHint(s))}
	out.buf = append(out.buf, magic...)
	section(&out, tagMeta, func(w *writer) { encodeMeta(w, &s.Meta) })
	section(&out, tagNet, func(w *writer) { encodeNet(w, s.Net) })
	section(&out, tagOpt, func(w *writer) { encodeOpt(w, s.Opt) })
	section(&out, tagRNG, func(w *writer) { encodeRNGs(w, rngs) })

	trailerOff := uint64(len(out.buf))
	var tail writer
	tail.u32(4) // section count
	tail.u64(trailerOff)
	out.buf = append(out.buf, tagTail...)
	out.u64(uint64(len(tail.buf)))
	out.buf = append(out.buf, tail.buf...)
	out.u32(crc32.Checksum(tail.buf, castagnoli))
	return out.buf, nil
}

// Decode parses and structurally validates a snapshot. Arbitrary input
// errors cleanly: every length is checked against the bytes present
// before any allocation, every section against its checksum. Semantic
// validation (adjacency symmetry, journal consistency, …) is left to
// overlay.RestoreNetwork and core's RestoreState.
func Decode(data []byte) (*Snapshot, error) {
	r := &reader{b: data}
	if head := string(r.take(len(magic))); head != magic {
		r.fail("bad magic %q (this build reads only %s checkpoints)", head, magic)
	}
	s := &Snapshot{}
	readSection(r, tagMeta, func(r *reader) { decodeMeta(r, &s.Meta) })
	readSection(r, tagNet, func(r *reader) { s.Net = decodeNet(r) })
	readSection(r, tagOpt, func(r *reader) { s.Opt = decodeOpt(r) })
	readSection(r, tagRNG, func(r *reader) { s.RNGs = decodeRNGs(r) })

	trailerOff := uint64(r.off)
	readSection(r, tagTail, func(r *reader) {
		if n := r.u32(); n != 4 && r.err == nil {
			r.fail("trailer section count %d, want 4", n)
		}
		if off := r.u64(); off != trailerOff && r.err == nil {
			r.fail("trailer offset %d, want %d", off, trailerOff)
		}
	})
	if r.err == nil && r.remaining() != 0 {
		r.fail("%d trailing bytes after trailer", r.remaining())
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// section frames one payload: tag, length, bytes, CRC-32C.
func section(out *writer, tag string, body func(*writer)) {
	out.buf = append(out.buf, tag...)
	lenAt := len(out.buf)
	out.u64(0) // patched below
	start := len(out.buf)
	body(out)
	payload := out.buf[start:]
	putU64(out.buf[lenAt:], uint64(len(payload)))
	out.u32(crc32.Checksum(payload, castagnoli))
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// readSection checks the tag, bounds the payload, verifies the CRC, and
// hands the body a sub-reader that must consume the payload exactly.
func readSection(r *reader, tag string, body func(*reader)) {
	if r.err != nil {
		return
	}
	got := r.take(4)
	if r.err != nil {
		return
	}
	if string(got) != tag {
		r.fail("section %q where %q expected", got, tag)
		return
	}
	n := r.u64()
	if r.err != nil {
		return
	}
	if n > uint64(r.remaining()) {
		r.fail("section %s claims %d bytes, %d left", tag, n, r.remaining())
		return
	}
	payload := r.take(int(n))
	sum := r.u32()
	if r.err != nil {
		return
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		r.fail("section %s checksum mismatch", tag)
		return
	}
	sub := &reader{b: payload}
	body(sub)
	if sub.err != nil {
		r.err = sub.err
		return
	}
	if sub.remaining() != 0 {
		r.fail("section %s carries %d undecoded bytes", tag, sub.remaining())
	}
}

func encodeMeta(w *writer, m *Meta) {
	w.varint(m.Step)
	w.varint(m.Seed)
	w.varint(m.PhysicalNodes)
	w.varint(m.Peers)
	w.varint(m.AvgDegree)
	w.varint(m.Depth)
	w.varint(m.Shards)
	w.varint(m.Policy)
	w.varint(m.Queries)
	w.varint(m.ChurnPeers)
	w.varint(m.Plan.Seed)
	w.f64(m.Plan.LossRate)
	w.f64(m.Plan.DelayJitter)
	w.f64(m.Plan.ProbeTimeoutRate)
	w.f64(m.Plan.ConnectFailRate)
	w.f64(m.Plan.UnresponsiveFraction)
	w.varint(int64(m.Plan.UnresponsivePeriod))
	w.f64(m.Plan.CrashFraction)
	w.varint(m.FaultOnset)
	w.boolean(m.FaultAttached)
	w.u64(m.FaultBase.MessagesLost)
	w.u64(m.FaultBase.ProbeTimeouts)
	w.u64(m.FaultBase.ConnectFailures)
	w.f64(m.Baseline.Traffic)
	w.f64(m.Baseline.Response)
	w.f64(m.Baseline.Scope)
}

func decodeMeta(r *reader, m *Meta) {
	m.Step = r.varint()
	m.Seed = r.varint()
	m.PhysicalNodes = r.varint()
	m.Peers = r.varint()
	m.AvgDegree = r.varint()
	m.Depth = r.varint()
	m.Shards = r.varint()
	m.Policy = r.varint()
	m.Queries = r.varint()
	m.ChurnPeers = r.varint()
	m.Plan.Seed = r.varint()
	m.Plan.LossRate = r.f64()
	m.Plan.DelayJitter = r.f64()
	m.Plan.ProbeTimeoutRate = r.f64()
	m.Plan.ConnectFailRate = r.f64()
	m.Plan.UnresponsiveFraction = r.f64()
	m.Plan.UnresponsivePeriod = int(r.varint())
	m.Plan.CrashFraction = r.f64()
	m.FaultOnset = r.varint()
	m.FaultAttached = r.boolean()
	m.FaultBase.MessagesLost = r.u64()
	m.FaultBase.ProbeTimeouts = r.u64()
	m.FaultBase.ConnectFailures = r.u64()
	m.Baseline.Traffic = r.f64()
	m.Baseline.Response = r.f64()
	m.Baseline.Scope = r.f64()
}

func encodeNet(w *writer, st *overlay.NetState) {
	w.uvarint(uint64(len(st.Attach)))
	for _, a := range st.Attach {
		w.uvarint(uint64(a))
	}
	for _, a := range st.Alive {
		w.boolean(a)
	}
	encodePeerLists(w, st.Nbr)
	encodePeerLists(w, st.HostCache)
	w.u64(st.Version)
	w.u64(st.JournalBase)
	w.uvarint(uint64(len(st.Journal)))
	for _, ev := range st.Journal {
		w.u8(uint8(ev.Kind))
		w.varint(int64(ev.P))
		w.varint(int64(ev.Q))
	}
}

func decodeNet(r *reader) *overlay.NetState {
	st := &overlay.NetState{}
	n := r.count(1)
	st.Attach = make([]int, 0, n)
	for i := 0; i < n; i++ {
		st.Attach = append(st.Attach, int(r.uvarint()))
	}
	if r.remaining() < n {
		r.fail("alive flags truncated")
		return st
	}
	st.Alive = make([]bool, 0, n)
	for i := 0; i < n; i++ {
		st.Alive = append(st.Alive, r.boolean())
	}
	st.Nbr = decodePeerLists(r, n)
	st.HostCache = decodePeerLists(r, n)
	st.Version = r.u64()
	st.JournalBase = r.u64()
	nj := r.count(3)
	st.Journal = make([]overlay.Event, 0, nj)
	for i := 0; i < nj; i++ {
		var ev overlay.Event
		ev.Kind = overlay.EventKind(r.u8())
		ev.P = overlay.PeerID(r.varint())
		ev.Q = overlay.PeerID(r.varint())
		st.Journal = append(st.Journal, ev)
	}
	return st
}

func encodePeerLists(w *writer, lists [][]overlay.PeerID) {
	for _, l := range lists {
		w.uvarint(uint64(len(l)))
		for _, p := range l {
			w.uvarint(uint64(p))
		}
	}
}

func decodePeerLists(r *reader, n int) [][]overlay.PeerID {
	lists := make([][]overlay.PeerID, n)
	for i := 0; i < n; i++ {
		m := r.count(1)
		if m == 0 {
			continue
		}
		lists[i] = make([]overlay.PeerID, 0, m)
		for j := 0; j < m; j++ {
			lists[i] = append(lists[i], overlay.PeerID(r.uvarint()))
		}
	}
	return lists
}

func encodeOpt(w *writer, st *core.OptState) {
	w.u64(st.Cursor)
	w.boolean(st.Synced)
	w.varint(int64(st.Stats.Full))
	w.varint(int64(st.Stats.Incremental))
	w.varint(int64(st.Stats.PeersRebuilt))
	w.varint(st.RoundNum)
	w.f64(st.TotalOverhead)
	w.uvarint(uint64(len(st.StaleFor)))
	for _, v := range st.StaleFor {
		w.varint(int64(v))
	}
	for _, v := range st.Excluded {
		w.boolean(v)
	}
	for _, v := range st.DialFails {
		w.u8(v)
	}
	for _, v := range st.BlackExp {
		w.u8(v)
	}
	for _, v := range st.BlackUntil {
		w.varint(int64(v))
	}
	w.uvarint(uint64(len(st.Pending)))
	for _, pe := range st.Pending {
		w.varint(int64(pe.A))
		w.varint(int64(pe.B))
		w.varint(int64(pe.H))
		w.varint(int64(pe.TTL))
	}
}

func decodeOpt(r *reader) *core.OptState {
	st := &core.OptState{}
	st.Cursor = r.u64()
	st.Synced = r.boolean()
	st.Stats.Full = int(r.varint())
	st.Stats.Incremental = int(r.varint())
	st.Stats.PeersRebuilt = int(r.varint())
	st.RoundNum = r.varint()
	st.TotalOverhead = r.f64()
	nf := r.count(1)
	st.StaleFor = make([]int32, 0, nf)
	for i := 0; i < nf; i++ {
		st.StaleFor = append(st.StaleFor, int32(r.varint()))
	}
	if r.remaining() < 3*nf {
		r.fail("fault arrays truncated")
		return st
	}
	st.Excluded = make([]bool, 0, nf)
	for i := 0; i < nf; i++ {
		st.Excluded = append(st.Excluded, r.boolean())
	}
	st.DialFails = make([]uint8, 0, nf)
	for i := 0; i < nf; i++ {
		st.DialFails = append(st.DialFails, r.u8())
	}
	st.BlackExp = make([]uint8, 0, nf)
	for i := 0; i < nf; i++ {
		st.BlackExp = append(st.BlackExp, r.u8())
	}
	st.BlackUntil = make([]int32, 0, nf)
	for i := 0; i < nf; i++ {
		st.BlackUntil = append(st.BlackUntil, int32(r.varint()))
	}
	np := r.count(4)
	st.Pending = make([]core.PendingEntry, 0, np)
	for i := 0; i < np; i++ {
		var pe core.PendingEntry
		pe.A = overlay.PeerID(r.varint())
		pe.B = overlay.PeerID(r.varint())
		pe.H = overlay.PeerID(r.varint())
		pe.TTL = int32(r.varint())
		st.Pending = append(st.Pending, pe)
	}
	return st
}

func encodeRNGs(w *writer, rngs []RNGPos) {
	w.uvarint(uint64(len(rngs)))
	for _, rp := range rngs {
		w.str(rp.Name)
		w.u64(rp.Pos)
	}
}

func decodeRNGs(r *reader) []RNGPos {
	n := r.count(9) // 1-byte name length minimum + 8-byte position
	rngs := make([]RNGPos, 0, n)
	for i := 0; i < n; i++ {
		name := r.str()
		pos := r.u64()
		if i > 0 && r.err == nil && name <= rngs[i-1].Name {
			r.fail("rng streams not sorted (%q after %q)", name, rngs[i-1].Name)
		}
		rngs = append(rngs, RNGPos{Name: name, Pos: pos})
	}
	return rngs
}

// encodeSizeHint estimates the output size to avoid growth copies on
// the 100k-peer encodes; an underestimate only costs reallocation.
func encodeSizeHint(s *Snapshot) int {
	n := len(s.Net.Attach)
	edges := 0
	for _, l := range s.Net.Nbr {
		edges += len(l)
	}
	return 256 + 8*n + 3*edges + 8*len(s.Net.Journal) + 12*len(s.Opt.StaleFor)
}

// Pos returns the recorded position of the named stream, or (0, false).
func (s *Snapshot) Pos(name string) (uint64, bool) {
	for _, rp := range s.RNGs {
		if rp.Name == name {
			return rp.Pos, true
		}
	}
	return 0, false
}

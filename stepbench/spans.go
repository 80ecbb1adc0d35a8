package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one benchmark-owned interval around a call into a layer.
// Times are nanoseconds since the recorder was created; parent is the
// index of the enclosing span, -1 for a step's root.
type span struct {
	Name   string `json:"name"`
	Step   int    `json:"step"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the whole run. A nil recorder
// records nothing, so the untraced path pays one nil check per call.
// Spans nest by call order: begin pushes, end pops. Only the stepping
// goroutine records.
type recorder struct {
	base  time.Time
	spans []span
	open  []int
	step  int
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) begin(name string) {
	if r != nil {
		r.beginAt(name, time.Now())
	}
}

// beginAt opens a span that starts at t, a clock read the caller also
// uses, so that the span and the caller's interval are the same.
func (r *recorder) beginAt(name string, t time.Time) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{Name: name, Step: r.step, Parent: parent, Start: int64(t.Sub(r.base))})
}

func (r *recorder) end() {
	if r != nil {
		r.endAt(time.Now())
	}
}

// endAt closes the innermost open span at t.
func (r *recorder) endAt(t time.Time) {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = int64(t.Sub(r.base))
}

// layerTimes attributes the recorded steps. self maps each span name to
// its summed self time (duration minus the time its children cover; the
// children of one span run one after another, so their durations add);
// total maps each name to its summed duration; stepNanos sums the root
// "step" spans, and residual is those roots' own self time — step time
// no layer span covers. Sum(self over layer names) + residual ==
// stepNanos by construction.
func (r *recorder) layerTimes() (self, total map[string]int64, stepNanos, residual int64, steps int) {
	self, total = map[string]int64{}, map[string]int64{}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		d := s.End - s.Start
		if s.Parent < 0 {
			stepNanos += d
			residual += d - child[i]
			steps++
			continue
		}
		self[s.Name] += d - child[i]
		total[s.Name] += d
	}
	return self, total, stepNanos, residual, steps
}

// moduleSelf folds per-span self times into per-module sums, the module
// being the span name's prefix before the first dot.
func moduleSelf(self map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, ns := range self {
		mod, _, _ := strings.Cut(name, ".")
		out[mod] += ns
	}
	return out
}

// write dumps every span as one JSON line, in recording order.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// quantile returns the q-quantile of xs (q in [0,1]), interpolating
// linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

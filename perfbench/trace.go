package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one workload run, replicate or
// job share a trace id; Parent links a span to the call that caused it.
// A root span (Parent 0) is a lane: a timeline that is busy in exactly
// one span at a time. Parent -1 marks work off every lane's blocking
// path, kept in the trace but out of the self-time accounting. Width > 1 marks a root that stands for that many
// parallel lanes (the mc pool's workers), whose children may overlap up
// to Width deep.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Width  int    `json:"width,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op costing one nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opened is a span that has started and not yet ended.
type opened struct {
	id, parent  int64
	trace, name string
	start       int64
}

// ID is the span id children pass as their parent (0 when untraced).
func (o opened) ID() int64 { return o.id }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span; finish it with end.
func (t *tracer) start(name, trace string, parent int64) opened {
	if t == nil {
		return opened{}
	}
	return opened{id: t.ids.Add(1), parent: parent, trace: trace, name: name, start: t.now()}
}

// end closes o, optionally renaming its trace (job ids are known only
// once the submit returns).
func (t *tracer) end(o opened) { t.endTrace(o, o.trace) }

func (t *tracer) endTrace(o opened, trace string) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Trace: trace, Name: o.name, Start: o.start, End: end})
	t.mu.Unlock()
}

// add records a span whose bounds and id the caller chose (lane roots,
// spans attached to a parent found after the fact).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newID reserves a span id for add.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// profile is the self-time breakdown of a set of spans.
type profile struct {
	// Self is the summed self time per span name: the span's duration
	// (times its width) minus the time its children cover.
	Self map[string]int64
	// Lanes is the summed width × duration of the root spans: the wall
	// time every self time is a share of.
	Lanes int64
	// Unattributed is the self time of the roots named "bench.*": lane
	// time no layer span covers.
	Unattributed int64
	// Problems lists spans that break the nesting the accounting relies
	// on (orphans, children outside their parent, overlapping siblings).
	Problems []string
}

// selfTimes computes the profile. A width-1 span's self time is its
// duration minus the union of its children's intervals, each clipped to
// the span; a width-W root's children may overlap up to W deep and count
// by their summed durations. Σ Self == Lanes exactly when every child
// lies inside its parent and width-1 siblings do not overlap, which is
// what checkProfile verifies: the layer self times add up to the lanes'
// wall time.
func selfTimes(spans []span) profile {
	p := profile{Self: map[string]int64{}}
	byID := make(map[int64]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent <= 0 {
			continue
		}
		if !byID[s.Parent] {
			p.problem("span %s (%s) has no parent %d", s.Name, s.Trace, s.Parent)
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, s := range spans {
		if s.Parent < 0 || (s.Parent > 0 && !byID[s.Parent]) {
			continue
		}
		width := int64(max(s.Width, 1))
		if s.Parent == 0 {
			p.Lanes += width * s.dur()
		}
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered := int64(0)
		var open []int64 // end times of overlapping children, for the depth check
		reach := s.Start // end of the union covered so far (width 1)
		for _, c := range ch {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi < lo {
				hi = lo
			}
			if width > 1 {
				covered += hi - lo
				live := open[:0]
				for _, e := range open {
					if e > c.Start {
						live = append(live, e)
					}
				}
				open = append(live, c.End)
				if int64(len(open)) > width {
					p.problem("%d spans overlap under %s (width %d) at %s", len(open), s.Name, width, c.Trace)
				}
				continue
			}
			if hi > reach {
				covered += hi - max(lo, reach)
				reach = hi
			}
		}
		self := width*s.dur() - covered
		p.Self[s.Name] += self
		if s.Parent == 0 && strings.HasPrefix(s.Name, "bench.") {
			p.Unattributed += self
		}
	}
	return p
}

func (p *profile) problem(format string, args ...any) {
	if len(p.Problems) < 10 {
		p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
	}
}

// share is a span name's self time as a share of the lane time.
func (p profile) share(name string) float64 {
	if p.Lanes == 0 {
		return 0
	}
	return float64(p.Self[name]) / float64(p.Lanes)
}

// checkProfile verifies that the self times plus the unattributed time
// add up to the lanes' wall time within 1%, with no nesting problems.
func checkProfile(p profile) error {
	if len(p.Problems) > 0 {
		return fmt.Errorf("trace nesting: %s", strings.Join(p.Problems, "; "))
	}
	if p.Lanes <= 0 {
		return fmt.Errorf("trace has no lane time")
	}
	var sum int64
	for _, v := range p.Self {
		sum += v
	}
	if d := float64(sum-p.Lanes) / float64(p.Lanes); d > 0.01 || d < -0.01 {
		return fmt.Errorf("layer self times sum to %.4f of the wall time, want 1±0.01", float64(sum)/float64(p.Lanes))
	}
	return nil
}

// durations returns the durations of the spans with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

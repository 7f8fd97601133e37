package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"napel/internal/obs"
)

// interval is a span's extent in nanoseconds since the recorder began.
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it that children
// cover. Children may overlap each other (a gate fans one batch out to
// several replicas at once) and may stick out of the parent; only the
// union of their parts inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// span is one recorded operation. Op is the trace id the client put in
// the request's traceparent, shared by every span of that request.
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// parentName, when set and Parent is empty, links the span to the
	// span of that name with the same Op once recording ends.
	parentName string
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs skip tracing.
type recorder struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) newID() string { return fmt.Sprintf("b%015x", r.ids.Add(1)) }

// add records a span.
func (r *recorder) add(s span, start, end time.Time) {
	if r == nil {
		return
	}
	if s.ID == "" {
		s.ID = r.newID()
	}
	s.Start = start.Sub(r.t0).Nanoseconds()
	s.End = end.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addProgram copies spans the program recorded on its own tracer, so a
// job's collect/train/evaluate/gate stages join the same file. prefix
// keeps their names apart from the benchmark's own.
func (r *recorder) addProgram(prefix string, recs []obs.SpanRecord) {
	if r == nil {
		return
	}
	for _, rec := range recs {
		end := rec.Start.Add(time.Duration(rec.DurationSeconds * float64(time.Second)))
		r.add(span{Name: prefix + rec.Name, Op: rec.TraceID, ID: rec.SpanID, Parent: rec.ParentID}, rec.Start, end)
	}
}

// wrap times every request h serves as a span named name. The request's
// traceparent names the op and the parent: the client span for a
// front-tier handler, or, when parentName is given, the span of that
// name with the same op (the gate forwards its own span id, which the
// benchmark never sees).
func (r *recorder) wrap(name, parentName string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		s := span{Name: name, parentName: parentName}
		if sc, ok := obs.ParseTraceParent(req.Header.Get(obs.TraceParentHeader)); ok {
			s.Op = fmt.Sprintf("%016x", sc.TraceID)
			if parentName == "" {
				s.Parent = fmt.Sprintf("%016x", sc.SpanID)
			}
		}
		r.add(s, start, end)
	})
}

// link resolves parentName references once every span is in.
func (r *recorder) link() {
	byOpName := map[[2]string]string{}
	for _, s := range r.spans {
		if s.Op != "" {
			byOpName[[2]string{s.Op, s.Name}] = s.ID
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent == "" && s.parentName != "" {
			s.Parent = byOpName[[2]string{s.Op, s.parentName}]
		}
	}
}

// layerSummary is one span name's mean duration and mean self time.
type layerSummary struct {
	name       string
	count      int
	linked     int // spans with a parent
	meanUS     float64
	meanSelfUS float64
}

// summarize links parents and returns every span name's mean duration
// and self time, in name order.
func (r *recorder) summarize() []layerSummary {
	r.link()
	children := map[string][]interval{}
	for _, s := range r.spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	type acc struct {
		n, linked int
		dur, self int64
	}
	by := map[string]*acc{}
	for _, s := range r.spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		if s.Parent != "" {
			a.linked++
		}
		a.dur += s.End - s.Start
		a.self += selfTime(s.interval(), children[s.ID])
	}
	out := make([]layerSummary, 0, len(by))
	for name, a := range by {
		out = append(out, layerSummary{
			name:       name,
			count:      a.n,
			linked:     a.linked,
			meanUS:     float64(a.dur) / float64(a.n) / 1e3,
			meanSelfUS: float64(a.self) / float64(a.n) / 1e3,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// find returns the summary of spans named name; the zero summary when
// there are none.
func find(sums []layerSummary, name string) layerSummary {
	for _, s := range sums {
		if s.name == name {
			return s
		}
	}
	return layerSummary{name: name}
}

// addSpanLayers sets the per-layer metrics read from the spans. Gate
// metrics are 0 on workloads without a gate.
func (r *result) addSpanLayers(sums []layerSummary) {
	gate, client := find(sums, "fleet.gate"), find(sums, "client")
	backend := find(sums, "serve.server")
	if gate.count > 0 {
		backend = find(sums, "fleet.replica")
	}
	fanout := 0.0
	if gate.count > 0 {
		fanout = float64(backend.linked) / float64(gate.count)
	}
	r.layers["fleet.gate_us"] = metric{gate.meanUS, "us"}
	r.layers["fleet.gate_self_us"] = metric{gate.meanSelfUS, "us"}
	r.layers["fleet.replica_us"] = metric{backend.meanUS, "us"}
	r.layers["fleet.fanout"] = metric{fanout, "count"}
	r.layers["net.overhead_us"] = metric{client.meanSelfUS, "us"}
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

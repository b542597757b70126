package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"foresight/internal/obs"
)

// span is one timed call recorded by the traced run. Times are
// milliseconds since the run started; Parent is the index of the
// enclosing span, or -1.
type span struct {
	Name    string  `json:"name"`
	Start   float64 `json:"start_ms"`
	End     float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
	Request string  `json:"request_id,omitempty"`
	Self    float64 `json:"self_ms"`
}

// recorder keeps every span in memory until the run ends. A disabled
// recorder records nothing, which is how the untraced half of the
// overhead comparison runs.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	off   bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return float64(t.Sub(r.t0)) / float64(time.Millisecond) }

// begin opens a span and returns its index (-1 when disabled).
func (r *recorder) begin(name string, parent int, req string) int {
	if r.off {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: r.at(time.Now()), Parent: parent, Request: req})
	return len(r.spans) - 1
}

// finish closes span i and returns its duration in ms.
func (r *recorder) finish(i int) float64 {
	if i < 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = r.at(time.Now())
	return r.spans[i].End - r.spans[i].Start
}

// timed runs f inside a span and returns the span's duration in ms;
// with the recorder disabled it still returns the duration.
func (r *recorder) timed(name string, parent int, req string, f func()) float64 {
	if r.off {
		t := time.Now()
		f()
		return float64(time.Since(t)) / float64(time.Millisecond)
	}
	i := r.begin(name, parent, req)
	f()
	return r.finish(i)
}

// adopt records the engine's own obs.Trace spans of one operation as
// children of span parent, offset by the trace's start.
func (r *recorder) adopt(parent int, ts obs.TraceSnapshot) {
	if r.off || parent < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.at(ts.Start)
	for _, s := range ts.Spans {
		r.spans = append(r.spans, span{Name: s.Name, Start: base + s.StartMS,
			End: base + s.StartMS + s.DurMS, Parent: parent, Request: ts.ID})
	}
}

// selfTimes fills each span's self time: its duration minus the part
// of it its children cover (children may overlap one another when the
// engine scores in parallel, so their union is subtracted).
func (r *recorder) selfTimes() {
	kids := map[int][][2]float64{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, lo, hi := 0.0, 0.0, -1.0
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// sum returns the total duration of spans whose name passes keep.
func (r *recorder) sum(keep func(string) bool) float64 {
	t := 0.0
	for _, s := range r.spans {
		if keep(s.Name) {
			t += s.End - s.Start
		}
	}
	return t
}

// childSum returns the total duration of spans named name that
// belong to request id.
func (r *recorder) childSum(id, name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := 0.0
	for _, s := range r.spans {
		if s.Request == id && s.Name == name {
			t += s.End - s.Start
		}
	}
	return t
}

// write stores every span as JSON under dir and returns the path.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// topSelf returns the n span names with the most total self time.
func (r *recorder) topSelf(n int) []nameTime {
	by := map[string]float64{}
	for _, s := range r.spans {
		by[s.Name] += s.Self
	}
	out := make([]nameTime, 0, len(by))
	for k, v := range by {
		out = append(out, nameTime{k, v})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ms > out[b].ms })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

type nameTime struct {
	name string
	ms   float64
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"time"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/obs"
	"foresight/internal/query"
	"foresight/internal/server"
	"foresight/internal/sketch"
	"foresight/internal/viz"
	"foresight/perfbench/common"
)

// traceCapacity keeps every request's engine trace between two reads
// of /api/debug/traces (foresightd's default ring holds 64); collect
// reads after every page, well under the endpoint's 1,000-trace cap.
const traceCapacity = 4096

// overheadPairs is how many traced/untraced warm-page pairs the
// overhead comparison runs.
const overheadPairs = 10

// selfPairs is how many ServeHTTP/direct carousels pairs each explore
// loop times for the server's self time.
const selfPairs = 3

// traced is one traced in-process run.
type traced struct {
	cfg      config
	rec      *recorder
	mu       sync.Mutex // guards ops, reqs, failures and pending
	m        map[string]float64
	ops      int
	failures []string
	approx   bool
	reqs     int
	pending  map[string]int // request ID → span awaiting its engine trace
	phase    int            // span of the current phase, parent of requests and direct calls

	f    *frame.Frame
	p    *sketch.DatasetProfile
	e    *query.Engine
	srv  *server.Server
	reg  *obs.Registry
	stop func() // closes the server and its durability manager
}

func newTraced(c config) *traced {
	return &traced{cfg: c, rec: newRecorder(), m: map[string]float64{},
		approx: c.workload == li, pending: map[string]int{}, phase: -1}
}

// options are foresightd's server options for the workload (with
// -quiet, and a trace ring large enough to read every trace back).
func (t *traced) options(reg *obs.Registry) server.Options {
	o := server.Options{Registry: reg, Version: "dev", RequestTimeout: 5 * time.Second,
		MaxInflight: 256, IngestQueue: 64, TraceCapacity: traceCapacity}
	if t.cfg.workload == we {
		o.RequestTimeout = 0
	}
	return o
}

// load reads the table and builds its sketch profile as foresightd's
// start-up does (prune is on by default, which builds the profile).
func (t *traced) load(parent int) (*frame.Frame, *sketch.DatasetProfile, error) {
	var f *frame.Frame
	var err error
	readMS := t.rec.timed("frame.ReadCSVFile", parent, "", func() { f, err = frame.ReadCSVFile(t.table(), "", nil) })
	if err != nil {
		return nil, nil, err
	}
	var p *sketch.DatasetProfile
	buildMS := t.rec.timed("sketch.BuildProfileSharded", parent, "", func() {
		p = sketch.BuildProfileSharded(f, sketch.ProfileConfig{Seed: common.ServerSeed, Spearman: true}, 0)
	})
	if _, ok := t.m["frame.read_csv_s"]; !ok {
		t.m["frame.read_csv_s"] = readMS / 1000
		t.m["sketch.build_s"] = buildMS / 1000
	}
	return f, p, nil
}

// newEngine configures an engine as foresightd does by default.
func newEngine(f *frame.Frame, p *sketch.DatasetProfile) (*query.Engine, error) {
	e, err := query.NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		return nil, err
	}
	e.SetWorkers(0)
	e.SetBuildShards(0)
	e.SetCacheEnabled(true)
	e.SetPruning(true)
	return e, nil
}

func (t *traced) run() error {
	root := t.rec.begin("setup", -1, "")
	f, p, err := t.load(root)
	if err != nil {
		return err
	}
	t.f, t.p = f, p
	t.m["sketch.rank_planes_share"] = rankPlanesShare(p)
	if t.e, err = newEngine(f, p); err != nil {
		return err
	}
	t.reg = obs.NewRegistry()
	opts := t.options(t.reg)
	var ing *ingestState
	if t.cfg.workload == li {
		if ing, err = t.openDurable(&opts, "wal"); err != nil {
			return err
		}
	}
	t.srv = server.New(t.e, 5, t.approx, opts)
	t.stop = t.srv.Close
	if ing != nil {
		if err := ing.recoverInto(t.e, t.srv); err != nil {
			return err
		}
	}
	t.rec.finish(root)

	t.inPhase("cold", t.cold)
	t.inPhase("core sweeps", t.coreSweeps)
	t.inPhase("explore", t.explore)
	t.inPhase("probes", t.probes)
	t.inPhase("overhead", t.overhead)
	var err2 error
	t.inPhase("ingest", func() { err2 = t.ingest(ing) })
	return err2
}

// inPhase runs f under a phase span that parents its calls.
func (t *traced) inPhase(name string, f func()) {
	t.phase = t.rec.begin(name, -1, "")
	f()
	t.rec.finish(t.phase)
	t.phase = -1
}

// direct times one call into the query layer with an engine trace on
// its context, so the engine's spans become the call's children.
func (t *traced) direct(name string, f func(ctx context.Context) error) float64 {
	t.mu.Lock()
	t.ops++
	t.reqs++
	id := fmt.Sprintf("direct-%d", t.reqs)
	t.mu.Unlock()
	tr := obs.NewTrace(name, id)
	ctx := obs.WithTrace(context.Background(), tr)
	i := t.rec.begin(name, t.phase, id)
	err := f(ctx)
	d := t.rec.finish(i)
	t.rec.adopt(i, tr.Finish())
	if err != nil {
		t.fail("%s: %v", name, err)
	}
	return d
}

// cold runs the cold-open requests directly against the fresh engine:
// the carousels and the approximate k=5 query, both with an empty
// memo. Pruning and singleflight counters are read after them.
func (t *traced) cold() {
	sess := query.NewSession(t.e, 5, t.approx)
	t.m["query.carousels_cold_ms"] = t.direct("query.Session.RecommendationsKContext", func(ctx context.Context) error {
		_, err := sess.RecommendationsKContext(ctx, 5)
		return err
	})
	t.m["query.sketch_query_cold_ms"] = t.direct("query.Engine.ExecuteContext", func(ctx context.Context) error {
		_, err := t.e.ExecuteContext(ctx, query.Query{K: 5, Approx: true})
		return err
	})
	ps := t.e.PruneStats()
	t.m["query.prune_skip_share"] = ratio(float64(ps.Pruned), float64(ps.Considered))
	t.m["query.singleflight_waits"] = float64(t.e.CacheStats().Waits)
}

// coreSweeps scores every candidate of every class sequentially, on
// raw data and on the sketch profile, and computes every bound.
func (t *traced) coreSweeps() {
	parent := t.phase
	boundMS := 0.0
	for _, c := range t.e.Registry().Classes() {
		name := c.Name()
		cands := c.Candidates(t.f)
		t.m["core.candidates."+name] = float64(len(cands))
		t.m["core.score_ms."+name] = t.rec.timed("core."+name+".Score", parent, "", func() {
			for _, a := range cands {
				t.ops++
				if _, err := c.Score(t.f, a, ""); err != nil {
					t.fail("core %s Score(%s): %v", name, joinAttrs(a), err)
				}
			}
		})
		t.m["core.score_approx_ms."+name] = t.approxSweep(c, t.f, t.p, parent)
		boundMS += t.rec.timed("core."+name+".ScoreBound", parent, "", func() {
			for _, a := range cands {
				core.ScoreBoundFor(c, t.p, a, "")
			}
		})
	}
	t.m["core.bound_ms"] = boundMS
}

// approxSweep times ScoreApprox over every candidate of c.
func (t *traced) approxSweep(c core.Class, f *frame.Frame, p *sketch.DatasetProfile, parent int) float64 {
	cands := c.Candidates(f)
	return t.rec.timed("core."+c.Name()+".ScoreApprox", parent, "", func() {
		for _, a := range cands {
			t.ops++
			if _, err := c.ScoreApprox(p, a, ""); err != nil {
				t.fail("core %s ScoreApprox(%s): %v", c.Name(), joinAttrs(a), err)
			}
		}
	})
}

// serve sends one request through Server.ServeHTTP inside a span and
// queues the span for its engine trace. Safe for concurrent use.
func (t *traced) serve(method, path, ctype string, body []byte) (*httptest.ResponseRecorder, float64, string) {
	t.mu.Lock()
	t.ops++
	t.reqs++
	id := fmt.Sprintf("req-%d", t.reqs)
	t.mu.Unlock()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("X-Request-ID", id)
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	route, _, _ := strings.Cut(path, "?")
	w := httptest.NewRecorder()
	i := t.rec.begin("server.ServeHTTP "+route, t.phase, id)
	start := time.Now()
	t.srv.ServeHTTP(w, req)
	d := float64(time.Since(start)) / float64(time.Millisecond)
	t.rec.finish(i)
	t.mu.Lock()
	if i >= 0 {
		t.pending[id] = i
	}
	t.mu.Unlock()
	if w.Code/100 != 2 {
		t.fail("%s %s: status %d: %s", method, path, w.Code, strings.TrimSpace(w.Body.String()))
	}
	return w, d, id
}

// collect reads the server's recent traces back and attaches each
// pending request's engine spans to its ServeHTTP span.
func (t *traced) collect() {
	if t.rec.off || len(t.pending) == 0 {
		return
	}
	req := httptest.NewRequest("GET", fmt.Sprintf("/api/debug/traces?limit=%d", len(t.pending)+16), nil)
	w := httptest.NewRecorder()
	t.srv.ServeHTTP(w, req)
	var out struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.fail("reading traces: %v", err)
		return
	}
	for _, ts := range out.Traces {
		if i, ok := t.pending[ts.ID]; ok {
			t.rec.adopt(i, ts)
			delete(t.pending, ts.ID)
		}
	}
	for id := range t.pending {
		t.fail("no engine trace for %s", id)
		delete(t.pending, id)
	}
}

// page loads the carousels and renders every card over two workers,
// as the UI does. It returns the cards, the carousels time and size,
// and the render times.
func (t *traced) page() (cards []query.Result, carouselsMS, kb float64, renders []float64) {
	w, carouselsMS, _ := t.serve("GET", "/api/carousels?k=5", "", nil)
	var ans struct {
		Carousels []query.Result `json:"carousels"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ans); err != nil {
		t.fail("carousels: %v", err)
		return nil, carouselsMS, 0, nil
	}
	var ins []core.Insight
	for _, r := range ans.Carousels {
		ins = append(ins, r.Insights...)
	}
	renders = make([]float64, len(ins))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(ins) {
					return
				}
				in := ins[i]
				rw, d, _ := t.serve("GET", "/api/render?class="+url.QueryEscape(in.Class)+"&metric="+
					url.QueryEscape(in.Metric)+"&attrs="+url.QueryEscape(joinAttrs(in.Attrs)), "", nil)
				if !strings.Contains(rw.Body.String(), "<svg") {
					t.fail("render %s(%s): not an SVG", in.Class, joinAttrs(in.Attrs))
				}
				renders[i] = d
			}
		}()
	}
	wg.Wait()
	t.collect()
	return ans.Carousels, carouselsMS, float64(w.Body.Len()) / 1024, renders
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rankPlanesShare is the share of numeric columns whose sketch still
// carries rank hyperplanes (the approximate monotonic fast path).
func rankPlanesShare(p *sketch.DatasetProfile) float64 {
	n, with := 0, 0
	for _, np := range p.Numeric {
		n++
		if np.RankPlanes != nil {
			with++
		}
	}
	return ratio(float64(with), float64(n))
}

// explore replays the warm-explore script twelve times, once per
// class in registry order, through ServeHTTP, and calls the same
// query-layer functions directly next to each step.
func (t *traced) explore() {
	names := t.e.Registry().Names()
	sess := query.NewSession(t.e, 5, t.approx)
	before := t.e.CacheStats()
	var self, warm, focus, nbr, exec, ov, ovSVG, render, kbs []float64
	for loop := 0; loop < len(names); loop++ {
		cls := names[loop]
		res, carMS, kb, renders := t.page()
		kbs = append(kbs, kb)
		render = append(render, renders...)
		// Server self time: the same carousels through ServeHTTP, then
		// directly; the page's carousels is the first of the pairs.
		for pair := 0; pair < selfPairs; pair++ {
			if pair > 0 {
				_, carMS, _ = t.serve("GET", "/api/carousels?k=5", "", nil)
			}
			d := t.direct("query.Session.RecommendationsKContext", func(ctx context.Context) error {
				_, err := sess.RecommendationsKContext(ctx, 5)
				return err
			})
			warm = append(warm, d)
			self = append(self, carMS-d)
		}
		t.collect()
		var top *core.Insight
		for _, r := range res {
			if r.Class == cls && len(r.Insights) > 0 {
				top = &r.Insights[0]
				break
			}
		}
		if top == nil { // a class without candidates on this table
			t.page()
			continue
		}
		body, _ := json.Marshal(map[string]interface{}{"class": top.Class, "metric": top.Metric, "attrs": top.Attrs})
		t.serve("POST", "/api/focus", "application/json", body)
		t.page()
		fs := query.NewSession(t.e, 5, t.approx)
		fs.FocusOn(*top)
		focus = append(focus, t.direct("query.Session.RecommendationsKContext focused", func(ctx context.Context) error {
			_, err := fs.RecommendationsKContext(ctx, 5)
			return err
		}))
		attrs := url.QueryEscape(joinAttrs(top.Attrs))
		t.serve("GET", "/api/neighborhood?class="+url.QueryEscape(top.Class)+"&metric="+url.QueryEscape(top.Metric)+
			"&attrs="+attrs+"&k=10", "", nil)
		nbr = append(nbr, t.direct("query.Engine.NeighborhoodContext", func(ctx context.Context) error {
			_, err := t.e.NeighborhoodContext(ctx, *top, nil, 10, t.approx)
			return err
		}))
		t.serve("GET", "/api/query?class=linear&fix="+url.QueryEscape(top.Attrs[0])+"&min=0.5&max=0.9&k=10", "", nil)
		exec = append(exec, t.direct("query.Engine.ExecuteContext", func(ctx context.Context) error {
			_, err := t.e.ExecuteContext(ctx, query.Query{Classes: []string{"linear"}, Fixed: top.Attrs[:1],
				MinScore: 0.5, MaxScore: 0.9, K: 10})
			return err
		}))
		t.serve("GET", "/api/overview?class=linear&format=svg", "", nil)
		var o *query.Overview
		ov = append(ov, t.direct("query.Engine.OverviewContext", func(ctx context.Context) (err error) {
			o, err = t.e.OverviewContext(ctx, "linear", "", false)
			return err
		}))
		if o != nil {
			ovSVG = append(ovSVG, t.rec.timed("viz.CorrelogramSVG", t.phase, "", func() {
				viz.CorrelogramSVG(o.RowAttrs, o.Values, "linear overview")
			}))
		}
		t.serve("POST", "/api/unfocus", "", nil)
		t.page()
	}
	after := t.e.CacheStats()
	t.m["server.carousels_self_ms"] = common.Median(self)
	t.m["server.render_ms"] = common.Median(render)
	t.m["server.response_kb.carousels"] = common.Median(kbs)
	t.m["query.carousels_warm_ms"] = common.Median(warm)
	t.m["query.focus_carousels_ms"] = common.Median(focus)
	t.m["query.neighborhood_ms"] = common.Median(nbr)
	t.m["query.execute_ms"] = common.Median(exec)
	t.m["query.overview_ms"] = common.Median(ov)
	t.m["viz.overview_svg_ms"] = common.Median(ovSVG)
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	t.m["query.memo_hit_share"] = ratio(hits, hits+misses)
	// Engine span totals over the cold calls and the twelve loops,
	// under their production names.
	for _, s := range []string{"parse", "enumerate", "score", "rank", "blend", "similarity"} {
		s := s
		t.m["query.span."+s+"_ms"] = t.rec.sum(func(n string) bool { return n == s || strings.HasPrefix(n, s+":") })
	}
}

// overhead compares warm pages with tracing on and off, alternating.
func (t *traced) overhead() {
	var on, off []float64
	for i := 0; i < overheadPairs; i++ {
		for _, traced := range []bool{i%2 == 0, i%2 != 0} {
			t.rec.off = !traced
			start := time.Now()
			t.page()
			d := float64(time.Since(start)) / float64(time.Millisecond)
			if traced {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	t.rec.off = false
	t.m["trace.overhead_share"] = common.Median(on)/common.Median(off) - 1
}

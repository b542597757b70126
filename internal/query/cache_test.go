package query

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// insightEqual compares every field bit-for-bit, treating NaN == NaN
// (reflect.DeepEqual would report NaN cells as unequal).
func insightEqual(a, b core.Insight) bool {
	if a.Key() != b.Key() || a.Approx != b.Approx || a.Vis != b.Vis {
		return false
	}
	if !floatEq(a.Score, b.Score) || !floatEq(a.Raw, b.Raw) {
		return false
	}
	if len(a.Details) != len(b.Details) {
		return false
	}
	for k, v := range a.Details {
		w, ok := b.Details[k]
		if !ok || !floatEq(v, w) {
			return false
		}
	}
	return true
}

func floatEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

func resultsEqual(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Metric != b[i].Metric {
			t.Fatalf("%s: header %v vs %v", label, a[i], b[i])
		}
		if len(a[i].Insights) != len(b[i].Insights) {
			t.Fatalf("%s: %s has %d vs %d insights", label, a[i].Class,
				len(a[i].Insights), len(b[i].Insights))
		}
		for j := range a[i].Insights {
			if !insightEqual(a[i].Insights[j], b[i].Insights[j]) {
				t.Errorf("%s: %s[%d]: %+v vs %+v", label, a[i].Class, j,
					a[i].Insights[j], b[i].Insights[j])
			}
		}
	}
}

func overviewEqual(t *testing.T, label string, a, b *Overview) {
	t.Helper()
	if a.Class != b.Class || a.Metric != b.Metric || a.Symmetric != b.Symmetric {
		t.Fatalf("%s: headers differ: %v/%v/%v vs %v/%v/%v", label,
			a.Class, a.Metric, a.Symmetric, b.Class, b.Metric, b.Symmetric)
	}
	if len(a.Values) != len(b.Values) {
		t.Fatalf("%s: %d vs %d rows", label, len(a.Values), len(b.Values))
	}
	for i := range a.Values {
		for j := range a.Values[i] {
			if !floatEq(a.Values[i][j], b.Values[i][j]) {
				t.Errorf("%s: Values[%d][%d] = %v vs %v", label, i, j,
					a.Values[i][j], b.Values[i][j])
			}
		}
	}
	if len(a.Insights) != len(b.Insights) {
		t.Fatalf("%s: %d vs %d insights", label, len(a.Insights), len(b.Insights))
	}
	for i := range a.Insights {
		if !insightEqual(a.Insights[i], b.Insights[i]) {
			t.Errorf("%s: insight %d differs", label, i)
		}
	}
}

// TestCacheEquivalence asserts the acceptance criterion that results
// are bit-identical with the cache on or off, across every query
// surface, both backends, and repeated (memo-serving) evaluation.
func TestCacheEquivalence(t *testing.T) {
	f := testFrame(1500, 31)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 7, K: 128, Spearman: true})
	cold, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	cold.SetCacheEnabled(false)
	warm, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheEnabled() {
		t.Fatal("cache should be enabled by default")
	}
	queries := []Query{
		{K: 5},
		{K: 5, Approx: true},
		{Classes: []string{"linear"}, Metric: "r2", K: 3},
		{Classes: []string{"linear"}, MinScore: 0.2, MaxScore: 0.9},
		{Fixed: []string{"a"}, K: 4},
		{Semantic: frame.SemanticCurrency, K: 4},
	}
	for round := 0; round < 2; round++ { // round 2 serves purely from the memo
		for qi, q := range queries {
			a, err := cold.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := warm.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, fmt.Sprintf("round %d query %d", round, qi), a, b)
		}
		for _, class := range []string{"linear", "skew"} {
			ova, err := cold.Overview(class, "", false)
			if err != nil {
				t.Fatal(err)
			}
			ovb, err := warm.Overview(class, "", false)
			if err != nil {
				t.Fatal(err)
			}
			overviewEqual(t, fmt.Sprintf("round %d overview %s", round, class), ova, ovb)
		}
	}
	// Neighborhood rides on Execute; check it end to end too.
	top, err := warm.Execute(Query{Classes: []string{"linear"}, K: 1})
	if err != nil || len(top) == 0 {
		t.Fatalf("no focus: %v", err)
	}
	na, err := cold.Neighborhood(top[0].Insights[0], nil, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := warm.Neighborhood(top[0].Insights[0], nil, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(na) != len(nb) {
		t.Fatalf("neighborhood sizes %d vs %d", len(na), len(nb))
	}
	for i := range na {
		if !insightEqual(na[i], nb[i]) {
			t.Errorf("neighbor %d: %v vs %v", i, na[i], nb[i])
		}
	}
	st := warm.CacheStats()
	if st.Hits == 0 || st.Entries == 0 {
		t.Errorf("warm engine never hit its cache: %+v", st)
	}
	if cs := cold.CacheStats(); cs.Hits != 0 || cs.Misses != 0 || cs.Entries != 0 {
		t.Errorf("disabled cache accrued state: %+v", cs)
	}
}

// TestCacheStatsAndInvalidation checks the memo fills, serves hits,
// and empties on SetProfile / InvalidateCache with a generation bump.
func TestCacheStatsAndInvalidation(t *testing.T) {
	f := testFrame(800, 32)
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Carousels(5, false); err != nil {
		t.Fatal(err)
	}
	st1 := e.CacheStats()
	if st1.Misses == 0 || st1.Entries == 0 || st1.Hits != 0 {
		t.Fatalf("first pass stats: %+v", st1)
	}
	if _, err := e.Carousels(5, false); err != nil {
		t.Fatal(err)
	}
	st2 := e.CacheStats()
	if st2.Hits != st1.Misses {
		t.Errorf("second pass should hit every slot: %+v after %+v", st2, st1)
	}
	if st2.Misses != st1.Misses || st2.Entries != st1.Entries {
		t.Errorf("second pass should add nothing: %+v after %+v", st2, st1)
	}

	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 3, K: 64})
	e.SetProfile(p)
	st3 := e.CacheStats()
	if st3.Generation != st2.Generation+1 || st3.Entries != 0 {
		t.Errorf("SetProfile should bump generation and drop entries: %+v", st3)
	}
	if _, err := e.Carousels(5, false); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Misses <= st3.Misses {
		t.Errorf("post-invalidation queries should rescore: %+v", st)
	}
	e.InvalidateCache()
	if st := e.CacheStats(); st.Entries != 0 || st.Generation != st3.Generation+1 {
		t.Errorf("InvalidateCache: %+v", st)
	}
}

// countingClass counts Score invocations, with an optional delay to
// widen concurrency windows.
type countingClass struct {
	calls atomic.Int64
	delay time.Duration
}

func (c *countingClass) Name() string        { return "counting" }
func (c *countingClass) Description() string { return "test class counting Score calls" }
func (c *countingClass) Arity() int          { return 1 }
func (c *countingClass) Metrics() []string   { return []string{"len"} }
func (c *countingClass) VisKind() core.VisKind {
	return core.VisBar
}
func (c *countingClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, nc := range f.NumericColumns() {
		out = append(out, []string{nc.Name()})
	}
	return out
}
func (c *countingClass) Score(f *frame.Frame, attrs []string, metric string) (core.Insight, error) {
	c.calls.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return core.Insight{
		Class: "counting", Metric: "len", Attrs: attrs,
		Score: float64(len(attrs[0])), Raw: float64(len(attrs[0])), Vis: core.VisBar,
	}, nil
}
func (c *countingClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (core.Insight, error) {
	return c.Score(nil, attrs, metric)
}

// TestCacheSingleflight hammers one engine with identical concurrent
// queries and asserts each candidate was scored exactly once: the
// memo plus the in-flight map collapse the thundering herd.
func TestCacheSingleflight(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			testCacheSingleflight(t, batched)
		})
	}
}

func testCacheSingleflight(t *testing.T, batched bool) {
	f := testFrame(200, 33)
	reg := core.NewEmptyRegistry()
	cc := &countingClass{delay: 2 * time.Millisecond}
	if err := reg.Register(maybeBatching(cc, batched)); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Execute(Query{K: 3}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := int64(len(cc.Candidates(f)))
	if got := cc.calls.Load(); got != want {
		t.Errorf("Score called %d times for %d candidates; singleflight failed", got, want)
	}
	st := e.CacheStats()
	if st.Entries != int(want) {
		t.Errorf("entries = %d, want %d", st.Entries, want)
	}
}

// TestConcurrentEngineQueries runs every read surface from many
// goroutines against one engine (meant for -race) and checks each
// response equals the single-threaded golden answer.
func TestConcurrentEngineQueries(t *testing.T) {
	f := testFrame(1200, 34)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 11, K: 64, Spearman: true})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(4)

	goldenExec, err := e.Execute(Query{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	goldenApprox, err := e.Execute(Query{K: 5, Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	goldenOv, err := e.Overview("linear", "", false)
	if err != nil {
		t.Fatal(err)
	}
	focus := goldenExec[0].Insights[0]
	goldenNbrs, err := e.Neighborhood(focus, nil, 5, false)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				switch (i + round) % 4 {
				case 0:
					res, err := e.Execute(Query{K: 5})
					if err != nil {
						t.Error(err)
						return
					}
					resultsEqual(t, "concurrent exec", goldenExec, res)
				case 1:
					res, err := e.Execute(Query{K: 5, Approx: true})
					if err != nil {
						t.Error(err)
						return
					}
					resultsEqual(t, "concurrent approx", goldenApprox, res)
				case 2:
					ov, err := e.Overview("linear", "", false)
					if err != nil {
						t.Error(err)
						return
					}
					overviewEqual(t, "concurrent overview", goldenOv, ov)
				case 3:
					nbrs, err := e.Neighborhood(focus, nil, 5, false)
					if err != nil {
						t.Error(err)
						return
					}
					if len(nbrs) != len(goldenNbrs) {
						t.Errorf("neighbors %d vs %d", len(nbrs), len(goldenNbrs))
						return
					}
					for j := range nbrs {
						if !insightEqual(nbrs[j], goldenNbrs[j]) {
							t.Errorf("neighbor %d differs", j)
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestConcurrentInvalidation interleaves SetProfile with a read load:
// no race, and queries issued after the last swap see fresh results.
func TestConcurrentInvalidation(t *testing.T) {
	f := testFrame(600, 35)
	pa := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, K: 64})
	pb := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 2, K: 64})
	e, err := NewEngine(f, core.NewRegistry(), pa)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				e.SetProfile(pb)
			} else {
				e.SetProfile(pa)
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				if _, err := e.Execute(Query{K: 3, Approx: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	e.SetProfile(pa)
	golden, err := e.Execute(Query{K: 3, Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Execute(Query{K: 3, Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "post-swap", golden, again)
}

package query

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// batching makes an arity-1 test class a core.BatchScorer: consecutive
// candidates whose attribute names have equal length form one batch
// (a, b, c | noise | skewed | gx, gy on testFrame), scored in order by
// the wrapped class, so a panic or a gate inside the wrapped Score
// lands mid-batch.
type batching struct{ core.Class }

func (b batching) SameBatch(x, y []string) bool { return len(x[0]) == len(y[0]) }

func (b batching) ScoreBatch(f *frame.Frame, p *sketch.DatasetProfile, batch [][]string, metric string, approx bool) ([]core.Insight, []error) {
	return core.ScoreBatch(b.Class, f, p, batch, metric, approx)
}

func maybeBatching(c core.Class, batched bool) core.Class {
	if batched {
		return batching{c}
	}
	return c
}

// batchOf returns the batch of the engine's only class that holds the
// candidate (attr).
func batchOf(e *Engine, attr string) [][]string {
	c := e.Registry().Classes()[0]
	cands := c.Candidates(e.Frame())
	start := 0
	for _, end := range core.BatchEnds(c, cands) {
		for _, attrs := range cands[start:end] {
			if attrs[0] == attr {
				return cands[start:end]
			}
		}
		start = end
	}
	return nil
}

// unbatched hides a class's BatchScorer but keeps its bound, so an
// engine over it scores one candidate at a time.
type unbatched struct{ core.Class }

func (u unbatched) ScoreBound(p *sketch.DatasetProfile, attrs []string, metric string) float64 {
	return core.ScoreBoundFor(u.Class, p, attrs, metric)
}

// withHoles copies f with missing cells planted: every 11th numeric
// cell (offset per column) is NaN and every 13th categorical code is
// missing, so exact Spearman takes its per-pair path and silhouettes
// skip rows.
func withHoles(f *frame.Frame) *frame.Frame {
	var cols []frame.Column
	for ci := 0; ci < f.Cols(); ci++ {
		switch c := f.Column(ci).(type) {
		case *frame.NumericColumn:
			vals := append([]float64(nil), c.Values()...)
			for i := ci % 11; i < len(vals); i += 11 {
				vals[i] = math.NaN()
			}
			cols = append(cols, frame.NewNumericColumn(c.Name(), vals))
		case *frame.CategoricalColumn:
			codes := append([]int32(nil), c.Codes()...)
			for i := ci % 13; i < len(codes); i += 13 {
				codes[i] = -1
			}
			cc, err := frame.NewCategoricalFromCodes(c.Name(), codes, c.Dict())
			if err != nil {
				panic(err)
			}
			cols = append(cols, cc)
		}
	}
	return frame.MustNew(f.Name()+"-holes", cols...)
}

// selectFirst keeps the first n numeric columns and every categorical
// column of f.
func selectFirst(f *frame.Frame, n int) *frame.Frame {
	var names []string
	for _, c := range f.NumericColumns()[:n] {
		names = append(names, c.Name())
	}
	for _, c := range f.CategoricalColumns() {
		names = append(names, c.Name())
	}
	out, err := f.Select(names...)
	if err != nil {
		panic(err)
	}
	return out
}

// TestOneAtATimeEquivalence requires the batched pool to return
// exactly what one-candidate-at-a-time scoring returns — pruned top-k
// carousels and the full segmentation and monotonic rankings — on
// IMDB- and Parkinson-shaped tables (Parkinson cut to 12 numeric
// columns to keep the grid cheap) and on IMDB with missing cells, for
// every combination of workers, pruning, the memo and the scoring
// backend.
func TestOneAtATimeEquivalence(t *testing.T) {
	for _, d := range []struct {
		name string
		f    *frame.Frame
	}{
		{"imdb", datagen.IMDB(80, 7)},
		{"parkinson", selectFirst(datagen.Parkinson(80, 7), 12)},
		{"imdb-holes", withHoles(datagen.IMDB(80, 8))},
	} {
		p := sketch.BuildProfile(d.f, sketch.ProfileConfig{Seed: 42, Spearman: true})
		seg, _ := core.NewRegistry().Lookup("segmentation")
		if cands := seg.Candidates(d.f); len(core.BatchEnds(seg, cands)) >= len(cands) {
			t.Fatalf("%s: segmentation candidates form no multi-candidate batch", d.name)
		}
		ref := core.NewEmptyRegistry()
		for _, c := range core.BuiltinClasses() {
			if err := ref.Register(unbatched{c}); err != nil {
				t.Fatal(err)
			}
		}
		for _, approx := range []bool{false, true} {
			run := func(reg *core.Registry, workers int, prune, cache bool) [][]Result {
				e, err := NewEngine(d.f, reg, p)
				if err != nil {
					t.Fatal(err)
				}
				e.SetWorkers(workers)
				e.SetPruning(prune)
				e.SetCacheEnabled(cache)
				car, err := e.Carousels(5, approx)
				if err != nil {
					t.Fatal(err)
				}
				all, err := e.Execute(Query{Classes: []string{"segmentation", "monotonic"}, Approx: approx})
				if err != nil {
					t.Fatal(err)
				}
				return [][]Result{car, all}
			}
			want := run(ref, 1, false, false)
			for _, workers := range []int{1, 2} {
				for _, prune := range []bool{false, true} {
					for _, cache := range []bool{false, true} {
						label := fmt.Sprintf("%s approx=%v workers=%d prune=%v cache=%v", d.name, approx, workers, prune, cache)
						got := run(core.NewRegistry(), workers, prune, cache)
						for i := range want {
							resultsEqual(t, fmt.Sprintf("%s query %d", label, i), got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// A panic on the second candidate of a batch abandons every memo slot
// of that batch — including the first candidate, scored but never
// published — so a waiter on those slots rescores them instead of
// hanging, and the pool drains.
func TestBatchPanicAbandonsBatchSlots(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			gc := &gateClass{gate: make(chan struct{}), blockAttr: "a", panicOnce: "b"}
			e := testEngineFor(t, batching{gc})
			e.SetWorkers(workers)
			if got := batchOf(e, "b"); len(got) < 2 || got[1][0] != "b" {
				t.Fatalf("batch of b = %v, want b second", got)
			}
			nCands := len(gc.Candidates(e.Frame()))

			ownerPanic := make(chan interface{}, 1)
			go func() {
				defer func() { ownerPanic <- recover() }()
				_, _ = e.Execute(Query{})
			}()
			waitFor(t, "owner to reach the gated Score", func() bool { return gc.calls.Load() >= 1 })

			var waiterRes []Result
			var waiterErr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				waiterRes, waiterErr = e.ExecuteContext(context.Background(), Query{})
			}()
			// The owner's lookups all missed without waiting, so the
			// waiter has looked up every candidate once its hits and
			// waits cover them all.
			waitFor(t, "waiter to join the in-flight slots", func() bool {
				st := e.CacheStats()
				return st.Hits+st.Waits >= uint64(nCands)
			})
			close(gc.gate)

			select {
			case r := <-ownerPanic:
				if r == nil || !strings.Contains(fmt.Sprint(r), "exploded on b") {
					t.Fatalf("owner recovered %v, want the scorer panic", r)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("owner never returned")
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("waiter hung on an abandoned batch slot")
			}
			if waiterErr != nil || len(waiterRes) != 1 || len(waiterRes[0].Insights) != nCands {
				t.Fatalf("waiter: res=%+v err=%v, want all %d candidates", waiterRes, waiterErr, nCands)
			}
			if got := e.CacheStats().Entries; got != nCands {
				t.Errorf("memo entries = %d, want %d", got, nCands)
			}
			waitFor(t, "worker pool to drain", func() bool { return e.ScoringInflight() == 0 })
		})
	}
}

// rendezvousClass scores in batches (by attribute-name length, like
// batching) and holds each batch until two batches have been in flight
// at once, or a second passes: it records whether the pool ran batches
// concurrently.
type rendezvousClass struct {
	gateClass
	mu       sync.Mutex
	inflight int
	paired   chan struct{} // closed once two batches overlapped
}

func (c *rendezvousClass) SameBatch(x, y []string) bool { return len(x[0]) == len(y[0]) }

func (c *rendezvousClass) ScoreBound(p *sketch.DatasetProfile, attrs []string, metric string) float64 {
	return 100
}

func (c *rendezvousClass) ScoreBatch(f *frame.Frame, p *sketch.DatasetProfile, batch [][]string, metric string, approx bool) ([]core.Insight, []error) {
	c.mu.Lock()
	if c.inflight++; c.inflight == 2 {
		select {
		case <-c.paired:
		default:
			close(c.paired)
		}
	}
	c.mu.Unlock()
	select {
	case <-c.paired:
	case <-time.After(time.Second):
	}
	defer func() {
		c.mu.Lock()
		c.inflight--
		c.mu.Unlock()
	}()
	return batching{&c.gateClass}.ScoreBatch(f, p, batch, metric, approx)
}

// The pruned path sizes its chunks in batches: with two workers, a
// chunk holds four batches and the pool runs them in parallel. Sized
// in candidates, the chunk would hold the batch (a, b, c) and one
// more, and the pool would fall back to sequential scoring.
func TestPrunedChunksCountBatches(t *testing.T) {
	rc := &rendezvousClass{paired: make(chan struct{})}
	f := testFrame(100, 7)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1})
	reg := core.NewEmptyRegistry()
	if err := reg.Register(rc); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, reg, p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(2)
	if _, err := e.Execute(Query{K: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rc.paired:
	default:
		t.Error("pruned path scored one batch at a time, want two in parallel")
	}
	if st := e.PruneStats(); st.Considered == 0 {
		t.Error("query did not take the pruned path")
	}
}

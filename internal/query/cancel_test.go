package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// gateClass scores instantly except for blockAttr, whose Score blocks
// until gate is closed. It makes singleflight ownership windows
// deterministic: a request is provably "mid-scoring" while the gate
// is shut.
type gateClass struct {
	calls     atomic.Int64
	gate      chan struct{}
	blockAttr string
	// panicOnce, when set, makes the first Score of that attr panic;
	// later Scores of it succeed.
	panicOnce string
	panicked  atomic.Bool
}

func (c *gateClass) Name() string          { return "gated" }
func (c *gateClass) Description() string   { return "test class with a blockable Score" }
func (c *gateClass) Arity() int            { return 1 }
func (c *gateClass) Metrics() []string     { return []string{"len"} }
func (c *gateClass) VisKind() core.VisKind { return core.VisBar }
func (c *gateClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, nc := range f.NumericColumns() {
		out = append(out, []string{nc.Name()})
	}
	return out
}
func (c *gateClass) Score(f *frame.Frame, attrs []string, metric string) (core.Insight, error) {
	c.calls.Add(1)
	if c.gate != nil && attrs[0] == c.blockAttr {
		<-c.gate
	}
	if attrs[0] == c.panicOnce && c.panicked.CompareAndSwap(false, true) {
		panic("gated scorer exploded on " + attrs[0])
	}
	return core.Insight{
		Class: "gated", Metric: "len", Attrs: attrs,
		Score: float64(len(attrs[0])), Raw: float64(len(attrs[0])), Vis: core.VisBar,
	}, nil
}
func (c *gateClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (core.Insight, error) {
	return c.Score(nil, attrs, metric)
}

// panicClass panics when scoring panicAttr and scores normally
// otherwise.
type panicClass struct {
	panicAttr string
}

func (c *panicClass) Name() string          { return "panicky" }
func (c *panicClass) Description() string   { return "test class that panics on one attr" }
func (c *panicClass) Arity() int            { return 1 }
func (c *panicClass) Metrics() []string     { return []string{"len"} }
func (c *panicClass) VisKind() core.VisKind { return core.VisBar }
func (c *panicClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, nc := range f.NumericColumns() {
		out = append(out, []string{nc.Name()})
	}
	return out
}
func (c *panicClass) Score(f *frame.Frame, attrs []string, metric string) (core.Insight, error) {
	if attrs[0] == c.panicAttr {
		panic(fmt.Sprintf("scorer exploded on %s", attrs[0]))
	}
	return core.Insight{
		Class: "panicky", Metric: "len", Attrs: attrs,
		Score: float64(len(attrs[0])), Raw: float64(len(attrs[0])), Vis: core.VisBar,
	}, nil
}
func (c *panicClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (core.Insight, error) {
	return c.Score(nil, attrs, metric)
}

// testEngineFor returns an engine over testFrame(100, 7) whose only
// class is c.
func testEngineFor(t *testing.T, c core.Class) *Engine {
	t.Helper()
	f := testFrame(100, 7)
	reg := core.NewEmptyRegistry()
	if err := reg.Register(c); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A context cancelled before the call must return immediately without
// scoring anything, and count one cancellation.
func TestExecuteContextPreCancelled(t *testing.T) {
	gc := &gateClass{}
	e := testEngineFor(t, gc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.ExecuteContext(ctx, Query{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := gc.calls.Load(); n != 0 {
		t.Errorf("scored %d candidates after pre-cancelled ctx", n)
	}
	if c := e.Cancellations(); c != 1 {
		t.Errorf("cancellations = %d, want 1", c)
	}
	// Overview honors the same contract.
	if _, err := e.OverviewContext(ctx, "gated", "", false); !errors.Is(err, context.Canceled) {
		t.Errorf("overview err = %v, want context.Canceled", err)
	}
	if c := e.Cancellations(); c != 2 {
		t.Errorf("cancellations = %d, want 2", c)
	}
}

// runParallel must stop dispatching once ctx fires, in both the
// sequential and the pooled regime.
func TestRunParallelCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int64
			var once sync.Once
			started := make(chan struct{})
			go func() {
				<-started
				cancel()
			}()
			err := runParallel(ctx, workers, 100, func(i int) {
				ran.Add(1)
				once.Do(func() { close(started) })
				<-ctx.Done() // pin the slot until cancellation
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Only indices already in flight when the cancel landed may
			// have run (plus at most one racing through the feeder's
			// select); the rest of the 100 must never start.
			if n := ran.Load(); n > int64(workers)+1 {
				t.Errorf("ran %d indices after cancellation, want ≤ %d", n, workers+1)
			}
		})
	}
}

// The singleflight wait must select on the waiter's own context: a
// waiter with a deadline returns DeadlineExceeded while the owner is
// still scoring, instead of blocking on the owner's done channel.
func TestSingleflightWaiterUnblocksOnCtxExpiry(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			gc := &gateClass{gate: make(chan struct{}), blockAttr: "a"}
			testSingleflightWaiterUnblocks(t, gc, testEngineFor(t, maybeBatching(gc, batched)))
		})
	}
}

func testSingleflightWaiterUnblocks(t *testing.T, gc *gateClass, e *Engine) {

	ownerDone := make(chan error, 1)
	go func() {
		_, err := e.Execute(Query{}) // background ctx; blocks on the gate
		ownerDone <- err
	}()
	waitFor(t, "owner to reach the gated Score", func() bool { return gc.calls.Load() >= 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.ExecuteContext(ctx, Query{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("waiter took %v to observe its deadline", d)
	}
	if c := e.Cancellations(); c == 0 {
		t.Error("waiter expiry not counted as a cancellation")
	}

	close(gc.gate)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner failed after release: %v", err)
	}
}

// An owner that gets cancelled mid-batch abandons its unscored slots;
// waiters are woken and score those candidates themselves rather than
// hanging or inheriting nothing.
//
// Batched, cancellation stops between batches: the owner finishes the
// gated batch (a, b, c) it was inside, and the waiter rescores only the
// batches never started. Either way every candidate is scored once.
func TestAbandonedSlotsRescoredByWaiter(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			gc := &gateClass{gate: make(chan struct{}), blockAttr: "a"}
			testAbandonedSlotsRescored(t, gc, testEngineFor(t, maybeBatching(gc, batched)), batched)
		})
	}
}

func testAbandonedSlotsRescored(t *testing.T, gc *gateClass, e *Engine, batched bool) {
	nCands := len((&gateClass{}).Candidates(e.Frame()))
	if nCands < 2 {
		t.Fatalf("test frame has %d numeric columns, need ≥ 2", nCands)
	}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := e.ExecuteContext(ownerCtx, Query{})
		ownerDone <- err
	}()
	waitFor(t, "owner to reach the gated Score", func() bool { return gc.calls.Load() >= 1 })

	waiterDone := make(chan error, 1)
	var waiterRes []Result
	go func() {
		res, err := e.Execute(Query{}) // background ctx: must not hang
		waiterRes = res
		waiterDone <- err
	}()
	// The waiter has joined the in-flight slots once the wait counter
	// covers every candidate.
	waitFor(t, "waiter to join the in-flight slots", func() bool {
		return e.CacheStats().Waits >= uint64(nCands)
	})

	cancelOwner()
	close(gc.gate) // release the blocked Score; owner then sees ctx and bails

	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter err = %v, want nil (rescore abandoned slots)", err)
	}
	if len(waiterRes) != 1 || len(waiterRes[0].Insights) != nCands {
		t.Fatalf("waiter results = %+v, want all %d candidates", waiterRes, nCands)
	}
	// Owner scored exactly its first unit of work (the gated candidate,
	// or the gated batch) before the cancellation; the waiter rescored
	// the abandoned rest.
	ownerScored := 1
	if batched {
		ownerScored = len(batchOf(e, "a"))
	}
	if n := gc.calls.Load(); n != int64(nCands) {
		t.Errorf("total Score calls = %d, want %d (%d owner + %d waiter rescores)", n, nCands, ownerScored, nCands-ownerScored)
	}
	if got := e.CacheStats().Entries; got != nCands {
		t.Errorf("memo entries = %d, want %d", got, nCands)
	}
	// Nothing left dangling for future requests.
	if _, err := e.Execute(Query{}); err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
}

// A panicking scorer propagates to the caller (per request), leaves
// the engine serviceable, and never wedges the singleflight map.
//
// The batched subtests panic on the second candidate of the batch
// (a, b, c), after the first has been scored.
func TestScorerPanicIsolation(t *testing.T) {
	for _, batched := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("workers=%d", workers)
			if batched {
				name = "batched," + name
			}
			t.Run(name, func(t *testing.T) {
				testScorerPanicIsolation(t, maybeBatching(&panicClass{panicAttr: "b"}, batched), workers)
			})
		}
	}
}

func testScorerPanicIsolation(t *testing.T, panicky core.Class, workers int) {
	f := testFrame(100, 7)
	reg := core.NewEmptyRegistry()
	if err := reg.Register(panicky); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&gateClass{}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(workers)

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected the scorer panic to reach the caller")
			}
			if !strings.Contains(fmt.Sprint(r), "scorer exploded") {
				t.Fatalf("panic value %v lost the original message", r)
			}
		}()
		_, _ = e.ExecuteContext(context.Background(), Query{Classes: []string{"panicky"}})
	}()

	// The engine survives: other classes keep scoring, and the
	// in-flight map was cleaned up (a second panicky query panics
	// again rather than hanging on an orphaned slot).
	res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"gated"}})
	if err != nil || len(res) != 1 {
		t.Fatalf("post-panic query: res=%v err=%v", res, err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { _ = recover() }()
		_, _ = e.ExecuteContext(context.Background(), Query{Classes: []string{"panicky"}})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second panicky query hung on an orphaned singleflight slot")
	}
	waitFor(t, "worker pool to drain", func() bool { return e.ScoringInflight() == 0 })
}

// Abandoning concurrent requests drains the worker pool and counts
// every cancellation — the E11 property at unit-test scale.
func TestAbandonedRequestsDrainWorkers(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			testAbandonedRequestsDrain(t, batched)
		})
	}
}

func testAbandonedRequestsDrain(t *testing.T, batched bool) {
	f := testFrame(200, 11)
	reg := core.NewEmptyRegistry()
	cc := &countingClass{delay: 10 * time.Millisecond}
	if err := reg.Register(maybeBatching(cc, batched)); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(2)

	const clients = 4
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.CarouselsContext(ctx, 5, false)
		}(i)
	}
	waitFor(t, "scoring to start", func() bool { return cc.calls.Load() >= 1 })
	cancel()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("client %d: err = %v, want context.Canceled", i, err)
		}
	}
	if c := e.Cancellations(); c != clients {
		t.Errorf("cancellations = %d, want %d", c, clients)
	}
	waitFor(t, "worker pool to drain", func() bool { return e.ScoringInflight() == 0 })
}

package query

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"foresight/internal/core"
	"foresight/internal/sketch"
)

// TestIngestShardedLargeBatch exercises the sharded delta path — a
// batch at least shardedIngestMinRows rows with build shards
// configured — while query hammers run against the engine, and checks
// the sharded delta agrees with the sequential one on every exact
// statistic. Run with -race: the point is that the concurrent shard
// builders never share state with in-flight queries.
func TestIngestShardedLargeBatch(t *testing.T) {
	const (
		baseRows  = 4000
		batchRows = shardedIngestMinRows + 2048
	)
	f := testFrame(baseRows, 11)
	profile := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 5, K: 64})
	e, err := NewEngine(f, core.NewRegistry(), profile)
	if err != nil {
		t.Fatal(err)
	}
	e.SetBuildShards(4)
	if e.BuildShards() != 4 {
		t.Fatalf("BuildShards = %d", e.BuildShards())
	}

	// Sequential reference delta over the same appended frame.
	batch := ingestRows(batchRows, baseRows)
	f2, err := f.AppendRows(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := profile.Extend(f2, 0)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := e.ExecuteContext(context.Background(), Query{Approx: true, K: 3}); err != nil {
					t.Errorf("execute during sharded ingest: %v", err)
					return
				}
			}
		}()
	}
	res, err := e.Ingest(context.Background(), batch, nil)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRows != baseRows+batchRows {
		t.Fatalf("total rows = %d, want %d", res.TotalRows, baseRows+batchRows)
	}

	got := e.Profile()
	if got.Rows != seq.Rows {
		t.Fatalf("profile rows = %d, want %d", got.Rows, seq.Rows)
	}
	for name, snp := range seq.Numeric {
		gnp := got.Numeric[name]
		if gnp == nil {
			t.Fatalf("numeric %q missing", name)
		}
		if gnp.Moments.Count() != snp.Moments.Count() {
			t.Errorf("%s: count %d vs %d", name, gnp.Moments.Count(), snp.Moments.Count())
		}
		if math.Abs(gnp.Moments.Mean-snp.Moments.Mean) > 1e-9*math.Max(1, math.Abs(snp.Moments.Mean)) {
			t.Errorf("%s: mean %v vs %v", name, gnp.Moments.Mean, snp.Moments.Mean)
		}
	}
	for name, scp := range seq.Categorical {
		gcp := got.Categorical[name]
		if gcp == nil {
			t.Fatalf("categorical %q missing", name)
		}
		if gcp.Rows != scp.Rows {
			t.Errorf("%s: rows %d vs %d", name, gcp.Rows, scp.Rows)
		}
	}
}

// TestIngestShardedSmallBatchStaysSequential: batches below the
// sharded threshold take the sequential delta even with shards
// configured, so small streaming appends stay bit-identical to an
// engine with sharding off.
func TestIngestShardedSmallBatchStaysSequential(t *testing.T) {
	const baseRows = 500
	f := testFrame(baseRows, 12)
	profile := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 7, K: 32})
	e, err := NewEngine(f, core.NewRegistry(), profile)
	if err != nil {
		t.Fatal(err)
	}
	e.SetBuildShards(4)

	batch := ingestRows(50, baseRows)
	f2, err := f.AppendRows(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := profile.Extend(f2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(context.Background(), batch, nil); err != nil {
		t.Fatal(err)
	}

	var want, got bytes.Buffer
	if err := seq.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := e.Profile().Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("small-batch ingest with shards configured diverged from the sequential delta")
	}
}

package sketch

import (
	"sync"
	"testing"
	"time"

	"foresight/internal/datagen"
)

func TestTimingObserver(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int{}
	SetTimingObserver(func(op string, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for %s", op)
		}
		mu.Lock()
		got[op]++
		mu.Unlock()
	})
	defer SetTimingObserver(nil)

	f := datagen.Scalable(datagen.ScalableConfig{Rows: 500, NumericCols: 4, CatCols: 2, Seed: 3})
	_ = BuildProfile(f, ProfileConfig{Seed: 1, Spearman: true})
	want := map[string]int{"build": 1, "build.shard": 1, "build.project": 1, "build.spearman": 1, "build.merge": 1}
	mu.Lock()
	for op, n := range want {
		if got[op] != n {
			t.Errorf("op %s observed %d times, want %d", op, got[op], n)
		}
	}
	mu.Unlock()

	// A three-shard build and an Extend report merges; nothing outside
	// the documented phase set is ever reported.
	big := datagen.Scalable(datagen.ScalableConfig{Rows: 3 * 4096, NumericCols: 2, CatCols: 1, Seed: 3})
	p := BuildProfileSharded(big, ProfileConfig{Seed: 1}, 3)
	if _, err := p.Extend(big, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got["build"] != 2 || got["extend"] != 1 {
		t.Errorf("build observed %d times, extend %d; want 2 and 1", got["build"], got["extend"])
	}
	// Two tree merges for three shards, plus Extend's fold.
	if got["merge"] != 3 {
		t.Errorf("merge observed %d times, want 3", got["merge"])
	}
	documented := map[string]bool{"build": true, "build.shard": true, "build.project": true,
		"build.spearman": true, "build.merge": true, "extend": true, "merge": true}
	for op := range got {
		if !documented[op] {
			t.Errorf("undocumented phase %q reported", op)
		}
	}
}

func TestTimingObserverUninstalled(t *testing.T) {
	SetTimingObserver(nil)
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 100, NumericCols: 2, Seed: 3})
	_ = BuildProfile(f, ProfileConfig{Seed: 1}) // must not panic
}

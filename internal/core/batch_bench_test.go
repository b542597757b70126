package core

import (
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/sketch"
)

// BenchmarkScoreAll times one full single-thread sweep of the two
// classes that dominate a cold first page, on the 5,000-row IMDB
// table: segmentation (batched silhouettes over 630 candidates) and
// monotonic (Spearman over every numeric pair), each exactly and from
// the sketch store. Run with
//
//	go test ./internal/core -run '^$' -bench ScoreAll
func BenchmarkScoreAll(b *testing.B) {
	f := datagen.IMDB(0, 7)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 42, Spearman: true})
	for _, c := range []Class{NewSegmentationClass(0, 0), NewMonotonicClass()} {
		b.Run(c.Name()+"/exact", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(ScoreAll(c, f, "")) == 0 {
					b.Fatal("no insights")
				}
			}
		})
		b.Run(c.Name()+"/approx", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(ScoreAllApprox(c, f, p, "")) == 0 {
					b.Fatal("no insights")
				}
			}
		})
	}
}

package server

import (
	"net/http/httptest"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// TestProfileBuildMetrics: server.New installs the sketch timing
// observer, so profile builds that happen while the server is up —
// sharded ingest rebuilds in particular — surface their per-phase
// breakdown in /metrics.
func TestProfileBuildMetrics(t *testing.T) {
	f := datagen.OECD(10000, 42)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, 5, false))
	t.Cleanup(ts.Close)

	// A sharded build after server construction: its phase timings must
	// flow through the observer into the server's registry.
	sketch.BuildProfileSharded(f, sketch.ProfileConfig{Seed: 1, K: 64}, 2)

	_, _, body := fetch(t, ts.URL+"/metrics")
	for _, want := range []string{
		`foresight_profile_build_seconds_count{phase="build"}`,
		`foresight_profile_build_seconds_count{phase="build.shard"}`,
		`foresight_profile_build_seconds_count{phase="build.project"}`,
		`foresight_profile_build_seconds_count{phase="build.merge"}`,
		`foresight_profile_build_seconds_count{phase="merge"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

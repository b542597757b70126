package sketch

import (
	"sync/atomic"
	"time"
)

// Sketch-layer observability. The profile builders and the merge path
// report their timings through a process-wide observer callback
// instead of taking a registry parameter: ProfileConfig is serialized
// (persist.go) and compared across partitions (merge.go), so it must
// stay a plain value type. The callback keeps this package free of
// any dependency while letting the serving layer aggregate build and
// merge timings into its metrics registry.
//
// Reported operations:
//
//	build           one full BuildProfile / BuildProfileSharded pass
//	build.shard     the range builder's row-local sketch phase
//	build.project   the range builder's shared-direction projections
//	build.spearman  the rank projections (when enabled)
//	build.merge     the range builder's tree reduction of shard partials
//	extend          one DatasetProfile.Extend call
//	merge           one DatasetProfile.Merge call
//
// build.shard, build.project and build.merge time the range builder
// (buildRange), so Extend reports them too, for its appended rows.

// TimingFunc receives one timed sketch operation.
type TimingFunc func(op string, d time.Duration)

var timingObserver atomic.Value // TimingFunc

// SetTimingObserver installs fn as the process-wide sketch timing
// observer (nil uninstalls). fn may be called concurrently and must
// be cheap: it runs inline on the build path.
func SetTimingObserver(fn TimingFunc) {
	// atomic.Value cannot store nil; store a typed no-op instead.
	if fn == nil {
		fn = func(string, time.Duration) {}
	}
	timingObserver.Store(fn)
}

// observeSince reports op's duration to the observer, if any.
func observeSince(op string, start time.Time) {
	if fn, ok := timingObserver.Load().(TimingFunc); ok {
		fn(op, time.Since(start))
	}
}

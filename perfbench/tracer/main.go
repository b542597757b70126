// Command tracer is the benchmark's traced in-process run. It builds
// the engine and server with the constructors foresightd uses, on the
// same CSV inputs, replays the workload's requests through
// Server.ServeHTTP and calls each module's public functions directly,
// wrapping every call in a span recorded here (name, start, end,
// parent, request ID). The engine's own obs.Trace spans are attached
// under the call that produced them. Spans stay in memory and are
// written to -out when the run ends.
//
//	tracer -workload warm-explore -seed 7 -seconds 30 -inputs <dir> -work <dir> -out <dir>
//	tracer -describe    # the per-layer metrics, with the end-to-end metric each should move
//
// The last line of stdout is the result object with every per-layer
// metric; the lines before it tag each metric with the end-to-end
// metric and workload it should move, and report the run's tracing
// overhead and the span names with the most self time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"foresight/internal/core"
	"foresight/perfbench/common"
)

// layer is one per-layer metric and the end-to-end metric (slot name,
// with its name on that workload) it should move.
type layer struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	Moves    string `json:"moves"`
	Workload string `json:"workload"`
}

const (
	coldPage  = "cold_wait_s (cold_page_p50)"
	coldQuery = "query_p50_ms (cold_sketch_query_p50_ms)"
	firstPage = "cold_wait_s (first_page_s)"
	warmPage  = "op_p50_ms (page_p50_ms)"
	focusPage = "follow_p50_ms (focus_page_p50_ms)"
	warmQuery = "query_p50_ms (query_p50_ms)"
	warmTail  = "request_tail_ms (request_p99_ms)"
	ackP50    = "op_p50_ms (ingest_ack_p50_ms)"
	ackTail   = "op_tail_ms (ingest_ack_p75_ms)"
	fresh     = "follow_p50_ms (fresh_p50_ms)"
	recoverS  = "cold_wait_s (recover_s)"
	setup     = "setup_s"
	co, we    = "cold-open", "warm-explore"
	li, all   = "live-ingest", "all"
)

// layers lists the per-layer metrics in BENCHMARK.json order.
func layers() []layer {
	l := func(name, unit, better, moves, workload string) layer {
		return layer{name, unit, better, moves, workload}
	}
	out := []layer{
		l("server.carousels_self_ms", "ms", "lower", warmPage, we),
		l("server.render_ms", "ms", "lower", warmPage, we),
		l("server.response_kb.carousels", "kB", "lower", warmPage, we),
		l("server.ingest_wait_ms", "ms", "lower", ackP50, li),
		l("query.carousels_cold_ms", "ms", "lower", coldPage+", "+firstPage, co+", "+we),
		l("query.carousels_warm_ms", "ms", "lower", warmPage, we),
		l("query.focus_carousels_ms", "ms", "lower", focusPage, we),
		l("query.neighborhood_ms", "ms", "lower", warmQuery, we),
		l("query.execute_ms", "ms", "lower", warmQuery, we),
		l("query.overview_ms", "ms", "lower", warmQuery, we),
		l("query.sketch_query_cold_ms", "ms", "lower", coldQuery, co),
		l("query.ingest_ms", "ms", "lower", ackP50, li),
		l("query.memo_hit_share", "share", "higher", warmPage, we),
		l("query.prune_skip_share", "share", "higher", coldPage, co),
		l("query.singleflight_waits", "count", "lower", coldPage, co),
		l("query.span.parse_ms", "ms", "lower", coldPage+", "+warmPage, co+", "+we),
		l("query.span.enumerate_ms", "ms", "lower", coldPage+", "+warmPage, co+", "+we),
		l("query.span.score_ms", "ms", "lower", coldPage+", "+coldQuery+", "+firstPage, co+", "+we),
		l("query.span.rank_ms", "ms", "lower", warmPage, we),
		l("query.span.blend_ms", "ms", "lower", focusPage, we),
		l("query.span.similarity_ms", "ms", "lower", warmQuery, we),
		l("query.span.ingest_append_ms", "ms", "lower", ackP50, li),
		l("query.span.ingest_delta_ms", "ms", "lower", ackP50, li),
		l("query.span.ingest_wal_ms", "ms", "lower", ackP50, li),
	}
	classes := core.NewRegistry().Names()
	coreMoves := coldPage + ", " + coldQuery + ", " + firstPage + ", " + fresh
	coreWhere := co + ", " + we + ", " + li
	for _, c := range classes {
		out = append(out, l("core.candidates."+c, "count", "lower", coreMoves, coreWhere))
	}
	for _, c := range classes {
		out = append(out, l("core.score_ms."+c, "ms", "lower", coldPage+", "+firstPage, co+", "+we))
	}
	for _, c := range classes {
		out = append(out, l("core.score_approx_ms."+c, "ms", "lower", coldQuery+", "+fresh, co+", "+li))
	}
	return append(out,
		l("core.score_approx_ms_after_ingest.monotonic", "ms", "lower", fresh, li),
		l("core.bound_ms", "ms", "lower", coldPage+", "+firstPage, co+", "+we),
		l("stats.silhouette_us", "us", "lower", coldPage+", "+firstPage, co+", "+we),
		l("stats.spearman_us", "us", "lower", coldPage+", "+firstPage, co+", "+we),
		l("viz.render_ms", "ms", "lower", warmPage, we),
		l("viz.overview_svg_ms", "ms", "lower", warmQuery, we),
		l("sketch.build_s", "s", "lower", setup+", "+recoverS, all),
		l("sketch.extend_ms", "ms", "lower", ackP50, li),
		l("sketch.rank_planes_share", "share", "higher", fresh, li),
		l("sketch.rank_planes_share_after_ingest", "share", "higher", fresh, li),
		l("frame.read_csv_s", "s", "lower", setup+", "+recoverS, all),
		l("frame.append_ms", "ms", "lower", ackP50, li),
		l("durable.append_ms", "ms", "lower", ackTail, li),
		l("durable.fsyncs_per_batch", "count", "lower", ackTail, li),
		l("durable.wal_bytes_per_user_byte", "ratio", "lower", ackTail+", "+recoverS, li),
		l("durable.checkpoint_ms", "ms", "lower", ackTail, li),
		l("durable.checkpoints", "count", "lower", ackTail+", "+recoverS, li),
		l("durable.recover_s", "s", "lower", recoverS, li),
		l("obs.telemetry_record_us", "us", "lower", warmPage+", "+warmTail, we),
		l("trace.overhead_share", "share", "lower", "none: the traced run's own cost", all),
	)
}

type config struct {
	workload, inputs, work, out string
	seed                        int64
	seconds                     int
}

func main() {
	var c config
	describe := flag.Bool("describe", false, "print the per-layer metrics as JSON and exit")
	flag.StringVar(&c.workload, "workload", "", "cold-open | warm-explore | live-ingest")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed (recorded; the inputs are already generated from it)")
	flag.IntVar(&c.seconds, "seconds", 10, "run length of the end-to-end run (sizes live-ingest's batch count)")
	flag.StringVar(&c.inputs, "inputs", "", "directory written by the inputs tool")
	flag.StringVar(&c.work, "work", "", "scratch directory (WAL directories)")
	flag.StringVar(&c.out, "out", "", "directory the span file is written to")
	flag.Parse()
	if *describe {
		b, _ := json.MarshalIndent(layers(), "", "  ")
		fmt.Println(string(b))
		return
	}
	known := false
	for _, w := range common.Workloads {
		known = known || w == c.workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "tracer: unknown workload %q\n", c.workload)
		os.Exit(1)
	}
	t := newTraced(c)
	start := time.Now()
	if err := t.run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	t.rec.selfTimes()
	path, err := t.rec.write(c.out, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer: writing spans:", err)
		os.Exit(1)
	}
	fmt.Printf("traced run %s seed %d: %d spans in %.1f s, written to %s\n",
		c.workload, c.seed, len(t.rec.spans), time.Since(start).Seconds(), path)
	fmt.Printf("  tracing overhead on a warm page: %+.2f%% (traced vs untraced, median of %d pairs)\n",
		100*t.m["trace.overhead_share"], overheadPairs)
	fmt.Printf("  most self time:")
	for _, nt := range t.rec.topSelf(8) {
		fmt.Printf(" %s %.1fms;", nt.name, nt.ms)
	}
	fmt.Println()
	for _, f := range t.failures {
		fmt.Println("  FAILED", f)
	}
	res := common.Result{Attempted: t.ops, Failed: len(t.failures), Metrics: map[string]common.Metric{}}
	for _, l := range layers() {
		v, ok := t.m[l.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Failed++
			fmt.Printf("  FAILED no value for %s\n", l.Name)
			continue
		}
		fmt.Printf("  %-44s %14.4f %-5s moves %s on %s\n", l.Name, v, l.Unit, l.Moves, l.Workload)
		res.Metrics[l.Name] = common.Metric{Value: v, Unit: l.Unit}
	}
	res.Correct = res.Failed == 0
	res.Print()
	if !res.Correct {
		os.Exit(1)
	}
}

func (t *traced) table() string { return filepath.Join(t.cfg.inputs, common.TableCSV) }

// fail records a failed operation.
func (t *traced) fail(format string, args ...interface{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

func joinAttrs(a []string) string { return strings.Join(a, ",") }

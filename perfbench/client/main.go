// Command client is the benchmark's end-to-end run: it starts the
// freshly built foresightd on a workload's CSV inputs, drives it over
// loopback HTTP with at most two connections, checks every answer,
// and prints the end-to-end metrics.
//
//	client -workload cold-open -seed 7 -seconds 30 -inputs <dir> -work <dir> -foresightd <bin>
//
// The last line of stdout is the result object; the lines before it
// give each metric under its role name and under the name it has on
// this workload, with its sample count, and the run's accounting.
// The exit code is 1 when any check failed.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"foresight/perfbench/common"
)

type config struct {
	workload   string
	seed       int64
	seconds    time.Duration
	inputs     string
	work       string
	foresightd string
	source     string
}

func main() {
	var c config
	var secs int
	flag.StringVar(&c.workload, "workload", "", "cold-open | warm-explore | live-ingest")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed (recorded; the inputs are already generated from it)")
	flag.IntVar(&secs, "seconds", 10, "measured seconds")
	flag.StringVar(&c.inputs, "inputs", "", "directory written by the inputs tool")
	flag.StringVar(&c.work, "work", "", "scratch directory for logs and WAL directories")
	flag.StringVar(&c.foresightd, "foresightd", "", "foresightd binary")
	flag.StringVar(&c.source, "source", "unknown", "digest of the source tree under test")
	flag.Parse()
	c.seconds = time.Duration(secs) * time.Second

	r := newRun(c)
	var err error
	switch c.workload {
	case "cold-open":
		err = coldOpen(r)
	case "warm-explore":
		err = warmExplore(r)
	case "live-ingest":
		err = liveIngest(r)
	default:
		err = fmt.Errorf("unknown workload %q", c.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "client:", err)
		os.Exit(1)
	}
	if !r.report() {
		os.Exit(1)
	}
}

// slot is one end-to-end metric: its name in BENCHMARK.json, its name
// on this workload, and its samples. q is the quantile reported
// (0.5 for a median); scale converts ms samples to the unit.
type slot struct {
	name, local, unit string
	q, scale          float64
	samples           []float64
}

// run holds one workload run's samples and accounting.
type run struct {
	cfg   config
	start time.Time
	slots []*slot

	requests, requestsFailed int
	checks, checksFailed     int
	failures                 []string
	c503, c504               int
	lateMS                   []float64
	sketchDrift, samples     int // cold-open sketch answers unlike sample 0
	env                      map[string]string
}

func newRun(c config) *run {
	return &run{cfg: c, env: map[string]string{
		"nproc": fmt.Sprint(runtime.NumCPU()), "client_go": runtime.Version(),
		"source": c.source, "seed": fmt.Sprint(c.seed),
	}}
}

// define declares the workload's slots in BENCHMARK.json order.
func (r *run) define(ss ...*slot) { r.slots = ss }

func (r *run) slot(name string) *slot {
	for _, s := range r.slots {
		if s.name == name {
			return s
		}
	}
	panic("perfbench: undefined slot " + name)
}

// add appends samples to the named slot.
func (r *run) add(name string, v ...float64) {
	r.slot(name).samples = append(r.slot(name).samples, v...)
}

func ms(name, local string, q float64) *slot {
	return &slot{name: name, local: local, unit: "ms", q: q, scale: 1}
}

func sec(name, local string) *slot {
	return &slot{name: name, local: local, unit: "s", q: 0.5, scale: 1}
}

// request accounts one HTTP exchange; a transport error or a status
// outside 2xx is a failed operation. It returns c.ok().
func (r *run) request(what string, c call) bool {
	r.requests++
	if !c.ok() {
		r.requestsFailed++
		msg := fmt.Sprintf("%s: status %d", what, c.status)
		if c.err != nil {
			msg = fmt.Sprintf("%s: %v", what, c.err)
		} else if len(c.body) > 0 {
			msg += ": " + strings.TrimSpace(string(c.body[:min(len(c.body), 200)]))
		}
		r.failures = append(r.failures, msg)
	}
	return c.ok()
}

// check accounts one output check; a false ok is a failed operation.
func (r *run) check(ok bool, format string, args ...interface{}) bool {
	r.checks++
	if !ok {
		r.checksFailed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// observe records the daemon's peak RSS and its 503/504 counts.
func (r *run) observe(d *daemon) error {
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	r.add("peak_rss_mb", rss)
	c503, c504, err := d.statusCounts()
	if err != nil {
		return err
	}
	r.c503 += c503
	r.c504 += c504
	return nil
}

// report prints the accounting and metrics and the result line; it
// returns whether every operation succeeded.
func (r *run) report() bool {
	p := func(format string, args ...interface{}) { fmt.Printf(format+"\n", args...) }
	keys := make([]string, 0, len(r.env))
	for k := range r.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var env []string
	for _, k := range keys {
		env = append(env, k+"="+r.env[k])
	}
	p("workload %s: %s", r.cfg.workload, strings.Join(env, " "))
	p("  requests attempted %d succeeded %d failed %d; checks attempted %d succeeded %d failed %d",
		r.requests, r.requests-r.requestsFailed, r.requestsFailed, r.checks, r.checks-r.checksFailed, r.checksFailed)
	p("  server answers: 503 x%d, 504 x%d", r.c503, r.c504)
	if len(r.lateMS) > 0 {
		p("  open-loop lateness: p50 %.3f ms, max %.3f ms over %d sends",
			common.Median(r.lateMS), common.Percentile(r.lateMS, 1), len(r.lateMS))
	}
	if r.samples > 1 {
		p("  known defect: %d of %d later sketch query answers are not byte-identical to sample 0's", r.sketchDrift, r.samples-1)
	}
	for i, f := range r.failures {
		if i == 20 {
			p("  ... %d more failures", len(r.failures)-i)
			break
		}
		p("  FAILED %s", f)
	}
	res := common.Result{
		Attempted: r.requests + r.checks,
		Failed:    r.requestsFailed + r.checksFailed,
		Metrics:   map[string]common.Metric{},
	}
	for _, s := range r.slots {
		v := common.Percentile(s.samples, s.q) * s.scale
		note := ""
		if s.q > 0.5 && !common.TailSupported(len(s.samples), s.q) {
			note = fmt.Sprintf(" (fewer than ten samples beyond p%g)", 100*s.q)
		}
		p("  %-16s %-26s %12.4f %-3s n=%d%s", s.name, s.local, v, s.unit, len(s.samples), note)
		if len(s.samples) == 0 || math.IsNaN(v) {
			res.Failed++
			r.failures = append(r.failures, "no samples for "+s.name)
			continue
		}
		res.Metrics[s.name] = common.Metric{Value: v, Unit: s.unit}
	}
	res.Correct = res.Failed == 0
	res.Print()
	return res.Correct
}

// measuring reports whether the measured window is still open.
func (r *run) measuring() bool { return time.Since(r.start) < r.cfg.seconds }

func msSince(t0, t time.Time) float64 { return float64(t.Sub(t0)) / float64(time.Millisecond) }

// Package common holds the pieces the benchmark's programs share: the
// result line, percentiles with the ten-beyond rule, and the input
// file layout. It imports only the standard library, so the HTTP
// client keeps building when the engine's internal APIs change.
package common

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Workloads lists the benchmark's workloads in BENCHMARK.json order.
var Workloads = []string{"cold-open", "warm-explore", "live-ingest"}

// Input layout inside a workload's input directory.
const (
	TableCSV   = "table.csv"   // the table foresightd loads
	ExpectJSON = "expect.json" // in-process engine answers (cold-open)
	BatchGlob  = "batch-*.csv" // live-ingest batches, in name order
)

// ServerSeed is the -seed foresightd runs with. Its sketch profile, and
// so every approximate answer, depends on it; the in-process runs use
// the same value.
const ServerSeed = 42

// Live-ingest shape: base rows, rows per batch and the open-loop rate.
const (
	IngestBaseRows  = 50000
	IngestBatchRows = 2000
	IngestPerSecond = 1.6 // sustained at the parent commit without backlog on 2 cores
)

// IngestBatches is the number of batches a live-ingest run of the
// given length posts; the inputs tool writes exactly that many.
func IngestBatches(seconds int) int {
	return int(math.Ceil(IngestPerSecond * float64(seconds)))
}

// BatchFile names live-ingest batch i.
func BatchFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("batch-%04d.csv", i))
}

// Expect is the in-process engine's answer on the cold-open table,
// reduced to what the HTTP answer must match: class, attributes and
// score of every returned insight.
type Expect struct {
	Carousels []ClassAnswer `json:"carousels"`
	Query     []ClassAnswer `json:"query"`
}

// ClassAnswer is one class's ranked insights.
type ClassAnswer struct {
	Class    string   `json:"class"`
	Insights []Answer `json:"insights"`
}

// Answer is one insight reduced to its identity and score.
type Answer struct {
	Attrs []string `json:"attrs"`
	Score float64  `json:"score"`
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Print writes r as one JSON line on stdout.
func (r Result) Print() {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Percentile(xs, 0.5).
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// TailSupported reports whether at least ten of n samples lie beyond
// the p-quantile, the condition for reporting a tail percentile.
func TailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

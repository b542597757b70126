// Command inputs writes one workload's seeded input tables as CSV, the
// only data foresightd receives, and checks that reading a table back
// gives the engine the same candidates as the generator's frame.
//
//	inputs -workload cold-open -seed 7 -seconds 30 -dir <dir>
//
// cold-open writes the IMDB table plus expect.json, the in-process
// engine's carousels and sketch query on the CSV-loaded table under
// foresightd's defaults. warm-explore writes the Parkinson table.
// live-ingest writes a datagen.Scalable table split into a
// 50,000-row base and the 2,000-row batches a run posts.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"foresight"
	"foresight/internal/datagen"
	"foresight/perfbench/common"
)

// maxBatchBytes is foresightd's POST body cap; a batch at or above it
// would be refused with 413.
const maxBatchBytes = 1 << 20

func main() {
	workload := flag.String("workload", "", "cold-open | warm-explore | live-ingest")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "run length; sizes the live-ingest batch count")
	dir := flag.String("dir", "", "output directory")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "inputs:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, dir string) error {
	if dir == "" {
		return fmt.Errorf("missing -dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	table := filepath.Join(dir, common.TableCSV)
	switch workload {
	case "cold-open":
		f := foresight.IMDBDataset(0, seed)
		g, err := writeAndReload(table, f, 0, f.Rows(), true)
		if err != nil {
			return err
		}
		return writeExpect(filepath.Join(dir, common.ExpectJSON), g)
	case "warm-explore":
		f := foresight.ParkinsonDataset(0, seed)
		_, err := writeAndReload(table, f, 0, f.Rows(), true)
		return err
	case "live-ingest":
		n := common.IngestBatches(seconds)
		f := datagen.Scalable(liveIngestConfig(seed, common.IngestBaseRows+n*common.IngestBatchRows))
		if _, err := writeAndReload(table, f, 0, common.IngestBaseRows, false); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			lo := common.IngestBaseRows + i*common.IngestBatchRows
			path := common.BatchFile(dir, i)
			if err := writeRows(path, f, lo, lo+common.IngestBatchRows); err != nil {
				return err
			}
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			if st.Size() >= maxBatchBytes {
				return fmt.Errorf("%s is %d bytes, over the 1 MiB body cap", path, st.Size())
			}
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", workload)
}

// liveIngestConfig is the live-ingest table: 24 numeric and 2
// categorical columns with planted outliers and missing cells.
func liveIngestConfig(seed int64, rows int) datagen.ScalableConfig {
	return datagen.ScalableConfig{
		Rows: rows, NumericCols: 24, CatCols: 2, Seed: seed,
		OutlierEvery: 4, MissingEvery: 6,
	}
}

// writeAndReload writes rows [lo, hi) of f as CSV, reads the file back
// the way foresightd does, and checks that every class enumerates the
// same number of candidates on both frames. With all set, every class
// must have at least one candidate.
func writeAndReload(path string, f *foresight.Frame, lo, hi int, all bool) (*foresight.Frame, error) {
	if err := writeRows(path, f, lo, hi); err != nil {
		return nil, err
	}
	g, err := foresight.ReadCSVFile(path, "", nil)
	if err != nil {
		return nil, err
	}
	if g.Rows() != hi-lo || g.Cols() != f.Cols() {
		return nil, fmt.Errorf("%s reads back as %dx%d, want %dx%d", path, g.Rows(), g.Cols(), hi-lo, f.Cols())
	}
	src := f
	if lo != 0 || hi != f.Rows() {
		keep := make([]bool, f.Rows())
		for i := lo; i < hi; i++ {
			keep[i] = true
		}
		if src, err = f.FilterRows(keep); err != nil {
			return nil, err
		}
	}
	for _, c := range foresight.NewRegistry().Classes() {
		want, got := len(c.Candidates(src)), len(c.Candidates(g))
		if want != got {
			return nil, fmt.Errorf("%s: class %s has %d candidates from CSV, %d from the generator", path, c.Name(), got, want)
		}
		if all && got == 0 {
			return nil, fmt.Errorf("%s: class %s has no candidates", path, c.Name())
		}
	}
	return g, nil
}

// writeRows writes a header and rows [lo, hi) of f as CSV.
func writeRows(path string, f *foresight.Frame, lo, hi int) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(out)
	if err := w.Write(f.Names()); err != nil {
		out.Close()
		return err
	}
	rec := make([]string, f.Cols())
	for i := lo; i < hi; i++ {
		for j := range rec {
			rec[j] = f.Column(j).StringAt(i)
		}
		if err := w.Write(rec); err != nil {
			out.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeExpect records the in-process engine's carousels and approximate
// query on g, configured as foresightd's defaults configure it.
func writeExpect(path string, g *foresight.Frame) error {
	p := foresight.BuildProfileSharded(g, foresight.ProfileConfig{Seed: common.ServerSeed, Spearman: true}, 0)
	e, err := foresight.NewEngine(g, foresight.NewRegistry(), p)
	if err != nil {
		return err
	}
	e.SetPruning(true)
	car, err := foresight.NewSession(e, 5, false).RecommendationsK(5)
	if err != nil {
		return err
	}
	q, err := e.Execute(foresight.Query{K: 5, Approx: true})
	if err != nil {
		return err
	}
	b, err := json.Marshal(common.Expect{Carousels: answers(car), Query: answers(q)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func answers(rs []foresight.Result) []common.ClassAnswer {
	out := make([]common.ClassAnswer, 0, len(rs))
	for _, r := range rs {
		ca := common.ClassAnswer{Class: r.Class}
		for _, in := range r.Insights {
			ca.Insights = append(ca.Insights, common.Answer{Attrs: in.Attrs, Score: in.Score})
		}
		out = append(out, ca)
	}
	return out
}

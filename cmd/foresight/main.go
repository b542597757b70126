// Command foresight is the Foresight CLI: load a CSV (or one of the
// built-in demo datasets), print ranked insight carousels, run insight
// queries, and export insight visualizations as SVG.
//
// Usage:
//
//	foresight info      -data file.csv
//	foresight carousels -data file.csv [-k 5] [-approx]
//	foresight query     -data file.csv -class linear [-metric spearman]
//	                    [-fix attr1,attr2] [-min 0.5] [-max 0.8] [-k 10] [-approx] [-prune=false]
//	foresight overview  -data file.csv [-class linear] [-svg out.svg]
//	foresight render    -data file.csv -class linear -attrs x,y -svg out.svg
//	foresight selfcheck -data file.csv [-profile store.bin] [-shards 4] [-tol 0.07]
//	foresight serve     -data file.csv [-addr :8600] [-workers 0] [-cache]
//	foresight top       [-addr http://localhost:8600] [-interval 2s] [-once]
//	foresight demo      -name oecd|parkinson|imdb -out file.csv
//
// -data accepts a CSV path or the names oecd, parkinson, imdb for the
// built-in synthetic demo datasets.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"foresight"
	"foresight/internal/durable"
	"foresight/internal/obs"
	"foresight/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "info":
		err = runInfo(args)
	case "carousels":
		err = runCarousels(args)
	case "query":
		err = runQuery(args)
	case "overview":
		err = runOverview(args)
	case "render":
		err = runRender(args)
	case "demo":
		err = runDemo(args)
	case "serve":
		err = runServe(args)
	case "top":
		err = runTop(args)
	case "report":
		err = runReport(args)
	case "profile":
		err = runProfile(args)
	case "selfcheck":
		err = runSelfcheck(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "foresight: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "foresight:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: foresight <command> [flags]

commands:
  info       dataset shape and per-column summary
  carousels  top-k insights per class (the Figure-1 view)
  query      one insight query (class, metric, fixed attrs, score range)
  overview   per-class global view (the Figure-2 heat map)
  render     one insight visualization as SVG
  report     self-contained HTML report (carousels + overview)
  profile    build and persist a sketch store (-shards parallel)
  selfcheck  verify sketch invariants against a dataset (-profile checks a saved store)
  serve      start the demo web server (same UI as foresightd)
  top        live insight-telemetry dashboard for a running server
  demo       write a synthetic demo dataset as CSV

run 'foresight <command> -h' for per-command flags`)
}

// loadData opens -data: a CSV path or a built-in demo dataset name.
func loadData(path string, seed int64) (*foresight.Frame, error) {
	switch strings.ToLower(path) {
	case "":
		return nil, fmt.Errorf("missing -data (CSV path or oecd|parkinson|imdb)")
	case "oecd":
		return foresight.OECDDataset(0, seed), nil
	case "parkinson":
		return foresight.ParkinsonDataset(0, seed), nil
	case "imdb":
		return foresight.IMDBDataset(0, seed), nil
	default:
		return foresight.ReadCSVFile(path, "", nil)
	}
}

func newEngine(f *foresight.Frame, approx bool, seed int64) (*foresight.Engine, error) {
	return newEngineWithProfile(f, approx, false, seed, "", 0)
}

// newEngineWithProfile builds the engine; when approx or prune is
// requested a sketch store is loaded from profilePath (if given) or
// built fresh — with the sharded data-parallel builder when
// buildShards != 0. Pruning needs the store only for its cheap score
// bounds; exact queries still score from raw data.
func newEngineWithProfile(f *foresight.Frame, approx, prune bool, seed int64, profilePath string, buildShards int) (*foresight.Engine, error) {
	var profile *foresight.Profile
	if profilePath != "" {
		file, err := os.Open(profilePath)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		profile, err = foresight.LoadProfile(file)
		if err != nil {
			return nil, err
		}
	} else if approx || prune {
		profile = foresight.BuildProfileSharded(f,
			foresight.ProfileConfig{Seed: seed, Spearman: true}, buildShards)
	}
	engine, err := foresight.NewEngine(f, foresight.NewRegistry(), profile)
	if err != nil {
		return nil, err
	}
	engine.SetPruning(prune)
	return engine, nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	seed := fs.Int64("seed", 42, "seed for demo datasets")
	_ = fs.Parse(args)
	f, err := loadData(*data, *seed)
	if err != nil {
		return err
	}
	fmt.Println(f.Summary())
	for _, name := range f.Names() {
		col, _ := f.Lookup(name)
		meta := f.Meta(name)
		extra := ""
		if meta.Unit != "" {
			extra = " [" + meta.Unit + "]"
		}
		fmt.Printf("  %-28s %-12s missing=%d%s\n", name, col.Kind(), col.Missing(), extra)
	}
	return nil
}

func runCarousels(args []string) error {
	fs := flag.NewFlagSet("carousels", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	k := fs.Int("k", 5, "insights per class")
	approx := fs.Bool("approx", false, "answer from sketches")
	prune := fs.Bool("prune", true, "bound-based top-k candidate pruning (identical results; builds the sketch store)")
	workers := fs.Int("workers", 1, "parallel scoring workers (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 42, "seed for demo datasets / sketches")
	_ = fs.Parse(args)
	f, err := loadData(*data, *seed)
	if err != nil {
		return err
	}
	engine, err := newEngineWithProfile(f, *approx, *prune, *seed, "", 0)
	if err != nil {
		return err
	}
	engine.SetWorkers(*workers)
	carousels, err := engine.Carousels(*k, *approx)
	if err != nil {
		return err
	}
	for _, r := range carousels {
		fmt.Printf("\n═══ %s (%s) ═══\n", r.Class, r.Metric)
		for _, in := range r.Insights {
			panel, err := foresight.RenderASCII(f, in)
			if err != nil {
				fmt.Printf("  %s (render: %v)\n", in.String(), err)
				continue
			}
			fmt.Println(indent(panel, "  "))
		}
	}
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	class := fs.String("class", "", "insight class (empty = all)")
	metric := fs.String("metric", "", "ranking metric (empty = class default)")
	fix := fs.String("fix", "", "comma-separated fixed attributes")
	minScore := fs.Float64("min", 0, "minimum strength")
	maxScore := fs.Float64("max", 0, "maximum strength (0 = unbounded; negative is an error)")
	k := fs.Int("k", 10, "top-k per class")
	approx := fs.Bool("approx", false, "answer from sketches")
	prune := fs.Bool("prune", true, "bound-based top-k candidate pruning (identical results; builds the sketch store)")
	profilePath := fs.String("profile", "", "load a saved sketch store (implies -approx)")
	seed := fs.Int64("seed", 42, "seed for demo datasets / sketches")
	_ = fs.Parse(args)
	if *profilePath != "" {
		*approx = true
	}
	f, err := loadData(*data, *seed)
	if err != nil {
		return err
	}
	engine, err := newEngineWithProfile(f, *approx, *prune, *seed, *profilePath, 0)
	if err != nil {
		return err
	}
	q := foresight.Query{
		Metric:   *metric,
		MinScore: *minScore,
		MaxScore: *maxScore,
		K:        *k,
		Approx:   *approx,
	}
	if *class != "" {
		q.Classes = []string{*class}
	}
	if *fix != "" {
		q.Fixed = strings.Split(*fix, ",")
	}
	results, err := engine.Execute(q)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		fmt.Println("no insights matched the query")
		return nil
	}
	for _, r := range results {
		fmt.Printf("\n%s (%s):\n", r.Class, r.Metric)
		for i, in := range r.Insights {
			fmt.Printf("  %2d. %-40s score=%.4f raw=%+.4f\n",
				i+1, strings.Join(in.Attrs, ", "), in.Score, in.Raw)
		}
	}
	return nil
}

func runOverview(args []string) error {
	fs := flag.NewFlagSet("overview", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	class := fs.String("class", "linear", "insight class")
	metric := fs.String("metric", "", "ranking metric")
	svgPath := fs.String("svg", "", "write the heat map SVG here")
	approx := fs.Bool("approx", false, "answer from sketches")
	seed := fs.Int64("seed", 42, "seed for demo datasets / sketches")
	_ = fs.Parse(args)
	f, err := loadData(*data, *seed)
	if err != nil {
		return err
	}
	engine, err := newEngine(f, *approx, *seed)
	if err != nil {
		return err
	}
	ov, err := engine.Overview(*class, *metric, *approx)
	if err != nil {
		return err
	}
	fmt.Printf("%s overview (%s): %d×%d, %d scored tuples\n",
		ov.Class, ov.Metric, len(ov.RowAttrs), len(ov.ColAttrs), len(ov.Insights))
	top := ov.Insights
	if len(top) > 10 {
		top = top[:10]
	}
	for i, in := range top {
		fmt.Printf("  %2d. %-40s %+.4f\n", i+1, strings.Join(in.Attrs, ", "), in.Raw)
	}
	if *svgPath != "" {
		svg := foresight.CorrelogramSVG(ov, fmt.Sprintf("%s overview of %s", ov.Class, f.Name()))
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *svgPath)
	}
	return nil
}

func runRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	class := fs.String("class", "", "insight class")
	metric := fs.String("metric", "", "ranking metric")
	attrs := fs.String("attrs", "", "comma-separated attribute tuple")
	svgPath := fs.String("svg", "", "output SVG path (default stdout)")
	seed := fs.Int64("seed", 42, "seed for demo datasets")
	_ = fs.Parse(args)
	f, err := loadData(*data, *seed)
	if err != nil {
		return err
	}
	if *class == "" || *attrs == "" {
		return fmt.Errorf("render needs -class and -attrs")
	}
	reg := foresight.NewRegistry()
	c, ok := reg.Lookup(*class)
	if !ok {
		return fmt.Errorf("unknown class %q (have %v)", *class, reg.Names())
	}
	in, err := c.Score(f, strings.Split(*attrs, ","), *metric)
	if err != nil {
		return err
	}
	svg, err := foresight.RenderSVG(f, in)
	if err != nil {
		return err
	}
	if *svgPath == "" {
		fmt.Println(svg)
		return nil
	}
	if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s → %s\n", in.String(), *svgPath)
	return nil
}

// runServe starts the demo web server over -data, mirroring
// cmd/foresightd so the CLI binary alone can serve the UI.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	addr := fs.String("addr", ":8600", "listen address")
	k := fs.Int("k", 5, "insights per carousel")
	approx := fs.Bool("approx", false, "answer queries from sketches")
	workers := fs.Int("workers", 0, "parallel scoring workers (0 = GOMAXPROCS)")
	buildShards := fs.Int("build-shards", 0, "parallel profile-build shards for preprocessing and large ingest batches (0 = sequential, <0 = GOMAXPROCS)")
	cache := fs.Bool("cache", true, "memoize insight scores across queries")
	prune := fs.Bool("prune", true, "bound-based top-k candidate pruning (results are identical either way; off = score every candidate)")
	profilePath := fs.String("profile", "", "load a saved sketch store (implies -approx)")
	seed := fs.Int64("seed", 42, "seed for demo datasets / sketches")
	requestTimeout := fs.Duration("request-timeout", 5*time.Second, "per-request API deadline (0 = none)")
	maxInflight := fs.Int("max-inflight", 256, "max concurrently served API requests (0 = unlimited)")
	queryLogSample := fs.Float64("query-log-sample", 0, "fraction of engine queries logged as structured JSON telemetry lines (0 = off)")
	walDir := fs.String("wal-dir", "", "durability directory for the write-ahead log and snapshots (empty = no durable ingest)")
	fsyncMode := fs.String("fsync", "interval", "WAL fsync policy: always | interval | off")
	recoverPermissive := fs.Bool("recover-permissive", false, "keep the valid WAL prefix on mid-log corruption instead of refusing to start")
	_ = fs.Parse(args)
	if *profilePath != "" {
		*approx = true
	}
	f, err := loadData(*data, *seed)
	if err != nil {
		return err
	}
	engine, err := newEngineWithProfile(f, *approx, *prune, *seed, *profilePath, *buildShards)
	if err != nil {
		return err
	}
	engine.SetWorkers(*workers)
	engine.SetBuildShards(*buildShards)
	engine.SetCacheEnabled(*cache)
	reg := obs.NewRegistry()
	obs.SetBuildInfo(reg, "foresight-cli")
	// Durable ingest mirrors cmd/foresightd, but recovery runs
	// synchronously before the listener starts — the CLI favors a
	// simple startup over serving queries mid-replay.
	var durMgr *durable.Manager
	srvOpts := server.Options{
		Registry:       reg,
		LogWriter:      os.Stderr,
		Version:        "foresight-cli",
		RequestTimeout: *requestTimeout,
		MaxInflight:    *maxInflight,
		QueryLogSample: *queryLogSample,
	}
	if *walDir != "" {
		policy, err := durable.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		durMgr, err = durable.Open(durable.Options{
			Dir: *walDir, Fsync: policy, Permissive: *recoverPermissive,
			Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
		if err != nil {
			return err
		}
		durMgr.Instrument(reg)
		rec, err := durMgr.Recover(engine)
		if err != nil {
			return fmt.Errorf("WAL recovery: %w", err)
		}
		fmt.Printf("foresight: recovered %s: snapshot seq %d + %d replayed batches (%d rows), last seq %d\n",
			*walDir, rec.SnapshotSeq, rec.ReplayedBatches, rec.ReplayedRows, rec.LastSeq)
		defer durMgr.Close()
		srvOpts.Durable = durMgr
	}
	srv := server.New(engine, *k, *approx, srvOpts)
	fmt.Printf("foresight: serving %s on http://localhost%s (workers=%d cache=%v prune=%v; /metrics, /api/stats, /api/debug/insights)\n",
		f.Summary(), *addr, engine.Workers(), *cache, engine.PruningEnabled())

	// Same lifecycle discipline as cmd/foresightd: listener timeouts
	// against stalled clients, SIGINT/SIGTERM drains in-flight
	// requests before exiting.
	writeTimeout := 30 * time.Second
	if *requestTimeout > 0 && *requestTimeout+10*time.Second > writeTimeout {
		writeTimeout = *requestTimeout + 10*time.Second
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("foresight: signal received, draining in-flight requests...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	srv.Close() // stop the ingest worker before the WAL closes
	return err
}

func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	name := fs.String("name", "oecd", "oecd | parkinson | imdb")
	out := fs.String("out", "", "output CSV path")
	rows := fs.Int("rows", 0, "row count (0 = paper default)")
	seed := fs.Int64("seed", 42, "generator seed")
	_ = fs.Parse(args)
	var f *foresight.Frame
	switch strings.ToLower(*name) {
	case "oecd":
		f = foresight.OECDDataset(*rows, *seed)
	case "parkinson":
		f = foresight.ParkinsonDataset(*rows, *seed)
	case "imdb":
		f = foresight.IMDBDataset(*rows, *seed)
	default:
		return fmt.Errorf("unknown demo dataset %q", *name)
	}
	if *out == "" {
		return f.WriteCSV(os.Stdout)
	}
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f.WriteCSV(file); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", *out, f.Summary())
	return nil
}

func indent(text, prefix string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

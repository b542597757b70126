package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"foresight/perfbench/common"
)

// setups is how many times a run starts the server to time set-up; the
// metric is their median. cold-open starts one per sample instead.
const setups = 3

// serverArgs are the flags every workload passes: its table, and the
// profile seed the cold-open expectation was computed with.
func (r *run) serverArgs(extra ...string) []string {
	return append([]string{"-data", filepath.Join(r.cfg.inputs, common.TableCSV),
		"-seed", fmt.Sprint(common.ServerSeed)}, extra...)
}

func (r *run) logPath() string { return filepath.Join(r.cfg.work, "foresightd.log") }

// startTimed starts a daemon and records its set-up time.
func (r *run) startTimed(args []string) (*daemon, error) {
	d, setup, err := startDaemon(r.cfg.foresightd, args, r.logPath())
	if err != nil {
		return nil, err
	}
	r.add("setup_s", setup.Seconds())
	return d, nil
}

// noteRuntime records the server's GOMAXPROCS and Go version.
func (r *run) noteRuntime(d *daemon) {
	c := d.do("GET", "/api/stats", "", nil)
	var st struct {
		Runtime struct {
			GOMAXPROCS int `json:"gomaxprocs"`
		} `json:"runtime"`
		Build struct {
			Go string `json:"go"`
		} `json:"build"`
	}
	if c.ok() && json.Unmarshal(c.body, &st) == nil {
		r.env["server_gomaxprocs"] = fmt.Sprint(st.Runtime.GOMAXPROCS)
		r.env["server_go"] = st.Build.Go
	}
}

// sketchTol is the repository's gate for scores from two builds of a
// sketch profile over the same rows (experiment E13, selfcheck).
const sketchTol = 0.07

// coldOpen: every sample starts a fresh foresightd with the shipped
// defaults on the IMDB table, loads one page, then sends one
// approximate query. One analyst, closed loop.
func coldOpen(r *run) error {
	r.define(sec("setup_s", "setup_s"), mb(),
		sec("cold_wait_s", "cold_page_p50"), ms("op_p50_ms", "render_p50_ms", 0.5),
		ms("op_tail_ms", "render_p90_ms", 0.9), ms("follow_p50_ms", "cold_carousels_p50_ms", 0.5),
		ms("query_p50_ms", "cold_sketch_query_p50_ms", 0.5), ms("request_tail_ms", "request_p90_ms", 0.9))
	r.slot("cold_wait_s").scale = 1e-3
	var exp common.Expect
	b, err := os.ReadFile(filepath.Join(r.cfg.inputs, common.ExpectJSON))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &exp); err != nil {
		return err
	}
	var pageDigest, queryDigest string
	r.start = time.Now()
	for i := 0; i == 0 || r.measuring(); i++ {
		r.samples++
		d, err := r.startTimed(r.serverArgs())
		if err != nil {
			return err
		}
		if i == 0 {
			r.noteRuntime(d)
		}
		p := r.loadPage(d)
		q := d.do("GET", "/api/query?k=5&approx=1", "", nil)
		r.request("sketch query", q)
		if p.ok {
			r.add("cold_wait_s", p.ms())
			r.add("follow_p50_ms", p.carousels.ms())
			r.addRequests(p)
		}
		if q.ok() {
			r.add("query_p50_ms", q.ms())
			r.add("request_tail_ms", q.ms())
		}
		if i == 0 {
			pageDigest, queryDigest = p.digest, digest(q.body)
			err := sameAnswers(p.parsed.Carousels, exp.Carousels, 0)
			r.check(err == nil, "carousels differ from the in-process engine: %v", err)
			var qa struct {
				Results classAnswers `json:"results"`
			}
			if err = json.Unmarshal(q.body, &qa); err == nil {
				err = sameAnswers(qa.Results, exp.Query, sketchTol)
			}
			r.check(err == nil, "sketch query differs from the in-process engine: %v", err)
		} else {
			r.check(p.digest == pageDigest, "sample %d: page differs from sample 0", i)
			if digest(q.body) != queryDigest {
				r.sketchDrift++
			}
		}
		if err := r.observe(d); err != nil {
			d.kill()
			return err
		}
		d.stop()
	}
	return nil
}

// addRequests records a page's render latencies and every request in
// the request-tail slot.
func (r *run) addRequests(p page) {
	r.add("request_tail_ms", p.carousels.ms())
	for _, c := range p.renders {
		r.add("op_p50_ms", c.ms())
		r.add("op_tail_ms", c.ms())
		r.add("request_tail_ms", c.ms())
	}
}

func mb() *slot {
	return &slot{name: "peak_rss_mb", local: "peak_rss_mb", unit: "MB", q: 0.5, scale: 1}
}

// warmExplore: one foresightd on the Parkinson table without a request
// deadline. The first page is timed on its own; then one analyst
// repeats a fixed six-step script in a closed loop.
func warmExplore(r *run) error {
	r.define(sec("setup_s", "setup_s"), mb(),
		sec("cold_wait_s", "first_page_s"), ms("op_p50_ms", "page_p50_ms", 0.5),
		ms("op_tail_ms", "page_p90_ms", 0.9), ms("follow_p50_ms", "focus_page_p50_ms", 0.5),
		ms("query_p50_ms", "query_p50_ms", 0.5), ms("request_tail_ms", "request_p99_ms", 0.99))
	r.slot("cold_wait_s").scale = 1e-3
	args := r.serverArgs("-request-timeout", "0")
	d, err := r.startSetups(args, nil)
	if err != nil {
		return err
	}
	defer d.stop()
	r.noteRuntime(d)
	cl := d.do("GET", "/api/classes", "", nil)
	var reg struct {
		Classes []struct {
			Name string `json:"name"`
		} `json:"classes"`
	}
	if !r.request("classes", cl) || !r.check(json.Unmarshal(cl.body, &reg) == nil && len(reg.Classes) > 0, "classes: bad answer") {
		return fmt.Errorf("cannot read the class registry")
	}

	first := r.loadPage(d)
	if first.ok {
		r.add("cold_wait_s", first.ms())
		r.tally(first)
	}
	seen := map[string]string{} // step key → digest of its first answer
	same := func(key string, body string) {
		if want, ok := seen[key]; ok {
			r.check(body == want, "%s differs from its first answer", key)
		} else {
			seen[key] = body
		}
	}
	if first.ok {
		seen["1 page"] = first.digest
	}
	r.start = time.Now()
	for loop := 0; loop == 0 || r.measuring(); loop++ {
		class := reg.Classes[loop%len(reg.Classes)].Name
		p1 := r.loadPage(d)
		r.pageDone(p1, "1 page", same)
		var top *card
		for i := range p1.cards {
			if p1.cards[i].Class == class {
				top = &p1.cards[i]
				break
			}
		}
		if !r.check(top != nil, "loop %d: page has no %s card to focus", loop, class) {
			continue
		}
		body, _ := json.Marshal(map[string]interface{}{"class": top.Class, "metric": top.Metric, "attrs": top.Attrs})
		fc := d.do("POST", "/api/focus", "application/json", body)
		if r.request("focus", fc) {
			r.tallyCall(fc)
			same("2 focus "+class, digest(fc.body))
		}
		p2 := r.loadPage(d)
		if r.pageDone(p2, "2 page "+class, same) {
			r.add("follow_p50_ms", p2.ms())
		}
		attrs := url.QueryEscape(strings.Join(top.Attrs, ","))
		steps := []struct{ key, path string }{
			{"3 neighborhood " + class, "/api/neighborhood?class=" + url.QueryEscape(top.Class) +
				"&metric=" + url.QueryEscape(top.Metric) + "&attrs=" + attrs + "&k=10"},
			{"4 query " + class, "/api/query?class=linear&fix=" + url.QueryEscape(top.Attrs[0]) + "&min=0.5&max=0.9&k=10"},
			{"5 overview", "/api/overview?class=linear&format=svg"},
		}
		for _, s := range steps {
			c := d.do("GET", s.path, "", nil)
			if r.request(s.key, c) {
				r.add("query_p50_ms", c.ms())
				r.tallyCall(c)
				same(s.key, digest(c.body))
			}
		}
		uc := d.do("POST", "/api/unfocus", "", nil)
		if r.request("unfocus", uc) {
			r.tallyCall(uc)
			same("6 unfocus", digest(uc.body))
		}
		r.pageDone(r.loadPage(d), "1 page", same)
	}
	return r.observe(d)
}

// pageDone accounts a warm-explore page under its step key.
func (r *run) pageDone(p page, key string, same func(string, string)) bool {
	if !p.ok {
		return false
	}
	r.add("op_p50_ms", p.ms())
	r.add("op_tail_ms", p.ms())
	r.tally(p)
	same(key, p.digest)
	return true
}

// tally adds a page's requests to the request-tail slot.
func (r *run) tally(p page) {
	r.tallyCall(p.carousels)
	for _, c := range p.renders {
		r.tallyCall(c)
	}
}

func (r *run) tallyCall(c call) { r.add("request_tail_ms", c.ms()) }

// startSetups starts the server `setups` times with the same flags,
// recording each set-up time, and keeps the last one running. fresh,
// when set, gives each start its own arguments (a new WAL directory).
func (r *run) startSetups(args []string, fresh func(i int) []string) (*daemon, error) {
	var d *daemon
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		a := args
		if fresh != nil {
			a = append(append([]string(nil), args...), fresh(i)...)
		}
		var err error
		if d, err = r.startTimed(a); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// ingestAck is the server's answer to one batch.
type ingestAck struct {
	RowsAccepted int    `json:"rows_accepted"`
	RowCount     int    `json:"row_count"`
	Generation   uint64 `json:"generation"`
}

// liveIngest: one foresightd with -approx and a WAL on the Scalable
// base table. An open loop posts the 2,000-row batches at a fixed
// rate on one connection; after each ack the other connection asks
// for the carousels. The run ends with kill -9 and a restart on the
// same WAL directory.
func liveIngest(r *run) error {
	r.define(sec("setup_s", "setup_s"), mb(),
		sec("cold_wait_s", "recover_s"), ms("op_p50_ms", "ingest_ack_p50_ms", 0.5),
		ms("op_tail_ms", "ingest_ack_p75_ms", 0.75), ms("follow_p50_ms", "fresh_p50_ms", 0.5),
		ms("query_p50_ms", "ingest_service_p50_ms", 0.5), ms("request_tail_ms", "request_p75_ms", 0.75))
	batches, err := filepath.Glob(filepath.Join(r.cfg.inputs, common.BatchGlob))
	if err != nil || len(batches) == 0 {
		return fmt.Errorf("no ingest batches in %s", r.cfg.inputs)
	}
	walDir := func(i int) string { return filepath.Join(r.cfg.work, fmt.Sprintf("wal-%d", i)) }
	args := r.serverArgs("-approx", "-checkpoint-rows", "50000")
	d, err := r.startSetups(args, func(i int) []string { return []string{"-wal-dir", walDir(i)} })
	if err != nil {
		return err
	}
	r.noteRuntime(d)
	base := common.IngestBaseRows

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	acked, sent := 0, false // batches acked so far; sender finished
	due := make([]time.Time, len(batches))
	interval := time.Duration(float64(time.Second) / common.IngestPerSecond)

	var wg sync.WaitGroup
	wg.Add(1)
	r.start = time.Now()
	go func() { // reader: one carousels request after each ack
		defer wg.Done()
		covered := 0
		for {
			mu.Lock()
			for acked == covered && !sent {
				cond.Wait()
			}
			upto, done := acked, sent
			mu.Unlock()
			if upto == covered && done {
				return
			}
			c := d.do("GET", "/api/carousels?k=5", "", nil)
			mu.Lock()
			if r.request("carousels after ingest", c) {
				r.tallyCall(c)
				for j := covered; j < upto; j++ {
					r.add("follow_p50_ms", msSince(due[j], c.end))
				}
			}
			mu.Unlock()
			covered = upto
		}
	}()
	prevGen := uint64(0)
	for i, path := range batches {
		body, err := os.ReadFile(path)
		if err != nil {
			mu.Lock()
			sent = true
			cond.Broadcast()
			mu.Unlock()
			wg.Wait()
			d.kill()
			return err
		}
		due[i] = r.start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due[i]))
		c := d.do("POST", "/api/ingest", "text/csv", body)
		mu.Lock()
		r.lateMS = append(r.lateMS, msSince(due[i], c.start))
		var ack ingestAck
		if r.request("ingest", c) && r.check(json.Unmarshal(c.body, &ack) == nil, "ingest %d: bad ack", i) {
			r.add("op_p50_ms", msSince(due[i], c.end))
			r.add("op_tail_ms", msSince(due[i], c.end))
			r.add("query_p50_ms", c.ms())
			r.tallyCall(c)
			want := base + (i+1)*common.IngestBatchRows
			r.check(ack.RowCount == want && ack.Generation > prevGen,
				"ingest %d: row_count %d generation %d, want %d rows and a generation above %d", i, ack.RowCount, ack.Generation, want, prevGen)
			prevGen = ack.Generation
			acked = i + 1
		}
		cond.Broadcast()
		mu.Unlock()
	}
	mu.Lock()
	sent = true
	cond.Broadcast()
	mu.Unlock()
	wg.Wait()

	want := base + acked*common.IngestBatchRows
	r.checkRows(d, want, "before kill -9")
	if err := r.observe(d); err != nil {
		d.kill()
		return err
	}
	d.kill()
	nd, rec, err := startDaemon(r.cfg.foresightd, append(args, "-wal-dir", walDir(setups-1)), r.logPath())
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	r.add("cold_wait_s", rec.Seconds())
	r.checkRows(nd, want, "after kill -9 and recovery")
	nd.stop()
	return nil
}

// checkRows checks /api/stats reports want rows.
func (r *run) checkRows(d *daemon, want int, when string) {
	c := d.do("GET", "/api/stats", "", nil)
	var st struct {
		Rows int `json:"rows"`
	}
	if r.request("stats", c) {
		err := json.Unmarshal(c.body, &st)
		r.check(err == nil && st.Rows == want, "%s: /api/stats reports %d rows, want %d", when, st.Rows, want)
	}
}

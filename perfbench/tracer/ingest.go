package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"foresight/internal/durable"
	"foresight/internal/frame"
	"foresight/internal/obs"
	"foresight/internal/query"
	"foresight/internal/server"
	"foresight/perfbench/common"
)

// Ingest probe on cold-open and warm-explore, whose end-to-end runs
// post no batches: rows of the workload's own table are posted back
// in small batches, so every per-layer metric has a value on every
// workload.
const (
	probeBatches   = 4
	probeBatchRows = 500
)

// ingestState is a durability manager opened as foresightd's -wal-dir
// opens it, with the engine's durable sink wrapped in a timer.
type ingestState struct {
	dir  string
	mgr  *durable.Manager
	sink *timedSink
}

// timedSink times each WAL append the engine makes before an ack.
type timedSink struct {
	mgr *durable.Manager
	rec *recorder
	mu  sync.Mutex
	ms  []float64
}

func (s *timedSink) AppendBatch(b frame.RowBatch, res query.IngestResult) error {
	var err error
	d := s.rec.timed("durable.Manager.AppendBatch", -1, "", func() { err = s.mgr.AppendBatch(b, res) })
	s.mu.Lock()
	s.ms = append(s.ms, d)
	s.mu.Unlock()
	return err
}

// openDurable opens a WAL directory with foresightd's defaults
// (-fsync interval, -checkpoint-rows 50000) and makes opts start the
// server unready, as foresightd does with -wal-dir.
func (t *traced) openDurable(opts *server.Options, name string) (*ingestState, error) {
	policy, err := durable.ParseFsyncPolicy("interval")
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(t.cfg.work, name)
	mgr, err := durable.Open(durable.Options{Dir: dir, Fsync: policy,
		FsyncInterval: 100 * time.Millisecond, CheckpointRows: 50000})
	if err != nil {
		return nil, err
	}
	mgr.Instrument(opts.Registry)
	opts.StartUnready = true
	opts.Durable = mgr
	return &ingestState{dir: dir, mgr: mgr, sink: &timedSink{mgr: mgr, rec: t.rec}}, nil
}

// recoverInto replays the directory into e, installs the timed sink
// and marks srv ready.
func (s *ingestState) recoverInto(e *query.Engine, srv *server.Server) error {
	if _, err := s.mgr.Recover(e); err != nil {
		return err
	}
	e.SetDurableSink(s.sink)
	srv.SetReady()
	return nil
}

// ingest posts the batches through ServeHTTP, one at a time. live-ingest
// posts its own batches into the workload's server, each followed by a
// carousels request as in the end-to-end run; the others post the
// probe into a second server over the same table, started as
// live-ingest starts foresightd (-approx -wal-dir). After the first
// ack it re-reads the rank-plane share and re-times the approximate
// monotonic sweep. It ends with a forced checkpoint and a recovery of
// the directory into a fresh engine.
func (t *traced) ingest(ing *ingestState) error {
	parent := t.phase
	var bodies [][]byte
	reg, base := t.reg, t.f.Rows()
	if ing != nil {
		paths, err := filepath.Glob(filepath.Join(t.cfg.inputs, common.BatchGlob))
		if err != nil {
			return err
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
		}
	} else {
		f, p, err := t.load(parent)
		if err != nil {
			return err
		}
		e, err := newEngine(f, p)
		if err != nil {
			return err
		}
		reg = obs.NewRegistry()
		opts := t.options(reg)
		opts.RequestTimeout = 5 * time.Second
		if ing, err = t.openDurable(&opts, "wal-probe"); err != nil {
			return err
		}
		prev := t.stop
		t.e, t.srv = e, server.New(e, 5, true, opts)
		t.stop = func() { t.srv.Close(); prev() }
		if err := ing.recoverInto(t.e, t.srv); err != nil {
			return err
		}
		if bodies, err = probe(f); err != nil {
			return err
		}
	}
	engineSeconds := reg.Histogram("foresight_ingest_seconds", "Engine ingest latency (append + sketch delta + swap).", nil)
	var waits, engine, appendMS, delta []float64
	userBytes, rows := 0, 0
	for i, body := range bodies {
		before := engineSeconds.Sum()
		w, ackMS, id := t.serve("POST", "/api/ingest", "text/csv", body)
		engineMS := (engineSeconds.Sum() - before) * 1000
		var ack struct {
			RowsAccepted int    `json:"rows_accepted"`
			RowCount     int    `json:"row_count"`
			Generation   uint64 `json:"generation"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
			t.fail("ingest %d: %v", i, err)
			continue
		}
		userBytes += len(body)
		rows += ack.RowsAccepted
		if ack.RowCount != base+rows {
			t.fail("ingest %d: row_count %d, want %d", i, ack.RowCount, base+rows)
		}
		t.collect()
		waits = append(waits, ackMS-engineMS)
		engine = append(engine, engineMS)
		appendMS = append(appendMS, t.rec.childSum(id, "ingest:append"))
		delta = append(delta, t.rec.childSum(id, "ingest:delta"))
		if i == 0 {
			t.m["sketch.rank_planes_share_after_ingest"] = rankPlanesShare(t.e.Profile())
			c, _ := t.e.Registry().Lookup("monotonic")
			t.m["core.score_approx_ms_after_ingest.monotonic"] = t.approxSweep(c, t.e.Frame(), t.e.Profile(), parent)
		}
		if t.cfg.workload == li {
			t.serve("GET", "/api/carousels?k=5", "", nil)
			t.collect()
		}
	}
	t.m["server.ingest_wait_ms"] = common.Median(waits)
	t.m["query.ingest_ms"] = common.Median(engine)
	t.m["frame.append_ms"] = common.Median(appendMS)
	t.m["sketch.extend_ms"] = common.Median(delta)
	t.m["durable.append_ms"] = common.Median(ing.sink.ms)
	for _, s := range []string{"append", "delta", "wal"} {
		name := "ingest:" + s
		t.m["query.span.ingest_"+s+"_ms"] = t.rec.sum(func(n string) bool { return n == name })
	}
	st := ing.mgr.Stats()
	t.m["durable.fsyncs_per_batch"] = ratio(float64(st.Fsyncs), float64(len(bodies)))
	t.m["durable.wal_bytes_per_user_byte"] = ratio(float64(st.AppendedBytes), float64(userBytes))
	t.m["durable.checkpoints"] = float64(st.Checkpoints)

	// Recovery: stop serving, then replay the directory into a fresh
	// engine over the base table, as a restart does; then time a forced
	// checkpoint of the recovered state.
	t.stop()
	if err := ing.mgr.Close(); err != nil {
		return fmt.Errorf("closing the WAL: %w", err)
	}
	f, p, err := t.load(parent)
	if err != nil {
		return err
	}
	e, err := newEngine(f, p)
	if err != nil {
		return err
	}
	policy, err := durable.ParseFsyncPolicy("interval")
	if err != nil {
		return err
	}
	mgr, err := durable.Open(durable.Options{Dir: ing.dir, Fsync: policy,
		FsyncInterval: 100 * time.Millisecond, CheckpointRows: 50000})
	if err != nil {
		return err
	}
	defer mgr.Close()
	t.ops++
	var rerr error
	t.m["durable.recover_s"] = t.rec.timed("durable.Manager.Recover", parent, "", func() { _, rerr = mgr.Recover(e) }) / 1000
	if rerr != nil {
		return rerr
	}
	if got := e.Frame().Rows(); got != base+rows {
		t.fail("recovered %d rows, want %d", got, base+rows)
	}
	ckpt, err := t.checkpoint(mgr, parent)
	if err != nil {
		return err
	}
	t.m["durable.checkpoint_ms"] = ckpt
	return nil
}

// checkpoint forces a snapshot, waiting out an automatic one that is
// still being written.
func (t *traced) checkpoint(m *durable.Manager, parent int) (float64, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var err error
		d := t.rec.timed("durable.Manager.Checkpoint", parent, "", func() { err = m.Checkpoint() })
		if err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("checkpoint: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// probe cuts the probe batches from the first rows of f, as CSV.
func probe(f *frame.Frame) ([][]byte, error) {
	var out [][]byte
	for b := 0; b < probeBatches; b++ {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.Write(f.Names()); err != nil {
			return nil, err
		}
		rec := make([]string, f.Cols())
		for i := b * probeBatchRows; i < (b+1)*probeBatchRows && i < f.Rows(); i++ {
			for j := range rec {
				rec[j] = f.Column(j).StringAt(i)
			}
			if err := w.Write(rec); err != nil {
				return nil, err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

package sketchcheck

import (
	"bytes"
	"fmt"
	"io"

	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// Config parameterizes a selfcheck run.
type Config struct {
	// Profile sizes the sketches; zero fields take the usual defaults.
	Profile sketch.ProfileConfig
	// Shards is the shard count for BuildProfileSharded and the
	// sharded Extend (default 4).
	Shards int
	// ExtendFrac is the fraction of rows profiled before the Extend
	// delta-merge folds in the rest (default 0.85, matching the live
	// ingest pattern of small batches on a large base).
	ExtendFrac float64
	// ScoreTol is the estimator-delta gate between build paths
	// (default 0.07 — the E13 gate every alternate build path is
	// benchmarked against).
	ScoreTol float64
}

func (c *Config) fill() {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.ExtendFrac <= 0 || c.ExtendFrac >= 1 {
		c.ExtendFrac = 0.85
	}
	if c.ScoreTol <= 0 {
		c.ScoreTol = 0.07
	}
}

// Run executes the full invariant suite against live profiles of f:
// it builds the sketch store along every path the codebase uses —
// one-pass, a chain of appends merged one partial at a time, sharded
// merge tree, Extend delta-merge (sequential and sharded) — checks
// each against ground truth (CheckProfileInvariants), checks
// persist→load and Clone for query identity, and gates the alternate
// paths against the sequential build (CheckProfilesCompatible). The returned report holds every
// violation found.
func Run(f *frame.Frame, cfg Config) *Report {
	r := &Report{}
	cfg.fill()

	// Sequential one-pass build: the reference.
	seq := sketch.BuildProfile(f, cfg.Profile)
	CheckProfileInvariants(r, seq, f)

	// Persist → load must answer queries identically.
	var buf bytes.Buffer
	if err := seq.Save(&buf); err != nil {
		r.Fail("persist/save", "Save: %v", err)
	} else if loaded, err := sketch.LoadProfile(&buf); err != nil {
		r.Fail("persist/load", "LoadProfile: %v", err)
	} else {
		CheckProfileQueryIdentity(r, "persist", seq, loaded)
		CheckProfileInvariants(r, loaded, f)
	}

	// Clone must answer queries identically.
	CheckProfileQueryIdentity(r, "clone", seq, seq.Clone())

	// Partitioned build: the §3 merge operators, sequentially, over
	// three unequal partials (a first third, then two appends). The
	// projections keep the first third's centers, so Pearson is not
	// gated against the one-pass build (see CheckProfilesCompatible).
	if part, err := extendChain(f, cfg.Profile, []int{f.Rows() / 3, 2 * f.Rows() / 3}); err != nil {
		r.Fail("partitioned/extend", "extendChain: %v", err)
	} else {
		CheckProfileInvariants(r, part, f)
		CheckProfilesCompatible(r, "partitioned", seq, part, cfg.ScoreTol, false)
	}

	// Sharded build: the same merge operators, concurrently, reduced
	// through a binary tree.
	sh := sketch.BuildProfileSharded(f, cfg.Profile, cfg.Shards)
	CheckProfileInvariants(r, sh, f)
	CheckProfilesCompatible(r, "sharded", seq, sh, cfg.ScoreTol, true)

	// Extend: profile a prefix, fold the remaining rows in via the
	// delta-merge, compare against the full rebuild.
	cut := int(float64(f.Rows()) * cfg.ExtendFrac)
	if cut >= 1 && cut < f.Rows() {
		prefix, err := PrefixFrame(f, cut)
		if err != nil {
			r.Fail("extend/prefix", "building prefix frame: %v", err)
			return r
		}
		base := sketch.BuildProfile(prefix, cfg.Profile)
		ext, err := base.Extend(f, 0)
		if err != nil {
			r.Fail("extend/extend", "Extend: %v", err)
		} else {
			CheckProfileInvariants(r, ext, f)
			CheckProfilesCompatible(r, "extend", seq, ext, cfg.ScoreTol, false)
		}
		extSh, err := base.Extend(f, cfg.Shards)
		if err != nil {
			r.Fail("extend/extend-sharded", "Extend(%d shards): %v", cfg.Shards, err)
		} else {
			CheckProfileInvariants(r, extSh, f)
			CheckProfilesCompatible(r, "extend-sharded", seq, extSh, cfg.ScoreTol, false)
		}
	}
	return r
}

// RunProfile checks an already-built profile (e.g. one reloaded from
// a persisted sketch store) against its frame, plus a persist
// round-trip of that profile.
func RunProfile(f *frame.Frame, p *sketch.DatasetProfile) *Report {
	r := &Report{}
	CheckProfileInvariants(r, p, f)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		r.Fail("persist/save", "Save: %v", err)
		return r
	}
	loaded, err := sketch.LoadProfile(&buf)
	if err != nil {
		r.Fail("persist/load", "LoadProfile: %v", err)
		return r
	}
	CheckProfileQueryIdentity(r, "persist", p, loaded)
	return r
}

// extendChain profiles the first cuts[0] rows of f, then folds in the
// rest with one sequential Extend per segment — up to each later cut
// point, then to f.Rows(). Cut points must ascend within [0, f.Rows()];
// equal cut points append empty segments, which still merge.
func extendChain(f *frame.Frame, cfg sketch.ProfileConfig, cuts []int) (*sketch.DatasetProfile, error) {
	prefix, err := PrefixFrame(f, cuts[0])
	if err != nil {
		return nil, err
	}
	p := sketch.BuildProfile(prefix, cfg)
	for _, cut := range append(append([]int(nil), cuts[1:]...), f.Rows()) {
		if prefix, err = PrefixFrame(f, cut); err != nil {
			return nil, err
		}
		if p, err = p.Extend(prefix, 0); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// PrefixFrame returns a frame holding the first rows rows of f with
// the same columns and (for categorical columns) the same dictionary
// coding, so f extends it in place — the shape Extend requires.
func PrefixFrame(f *frame.Frame, rows int) (*frame.Frame, error) {
	if rows < 0 || rows > f.Rows() {
		return nil, fmt.Errorf("sketchcheck: prefix of %d rows from a %d-row frame", rows, f.Rows())
	}
	cols := make([]frame.Column, 0, len(f.NumericColumns())+len(f.CategoricalColumns()))
	for _, name := range f.Names() {
		col, _ := f.Lookup(name)
		switch c := col.(type) {
		case *frame.NumericColumn:
			cols = append(cols, frame.NewNumericColumn(name, append([]float64(nil), c.Values()[:rows]...)))
		case *frame.CategoricalColumn:
			cc, err := frame.NewCategoricalFromCodes(name,
				append([]int32(nil), c.Codes()[:rows]...),
				append([]string(nil), c.Dict()...))
			if err != nil {
				return nil, err
			}
			cols = append(cols, cc)
		default:
			return nil, fmt.Errorf("sketchcheck: column %q has unsupported kind", name)
		}
	}
	return frame.New(f.Name(), cols...)
}

// WriteReport renders a human-readable summary of the report to w.
func WriteReport(w io.Writer, r *Report) {
	if r.Ok() {
		fmt.Fprintf(w, "selfcheck OK: %d invariants checked, 0 violations\n", r.Checked)
		return
	}
	fmt.Fprintf(w, "selfcheck FAILED: %d of %d invariants violated\n", len(r.Violations), r.Checked)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  %s\n", v.String())
	}
}

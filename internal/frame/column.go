// Package frame implements the columnar dataframe substrate used by
// Foresight. A Frame is an in-memory, immutable-by-convention matrix
// A(n×d) in which each column is either numeric (float64, NaN encodes a
// missing value) or categorical (dictionary-encoded strings, code -1
// encodes a missing value). The insight engine (package core) consumes
// Frames; the sketching layer (package sketch) consumes raw column
// slices obtained from a Frame in a single pass.
package frame

import (
	"fmt"
	"math"
	"sync"

	"foresight/internal/stats"
)

// Kind identifies the logical type of a column.
type Kind int

const (
	// Numeric columns hold float64 values; NaN marks a missing cell.
	Numeric Kind = iota
	// Categorical columns hold dictionary-encoded string values; a
	// negative code marks a missing cell.
	Categorical
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column is the read interface shared by numeric and categorical
// columns. Implementations are *NumericColumn and *CategoricalColumn.
type Column interface {
	// Name returns the attribute name of the column.
	Name() string
	// Kind reports whether the column is Numeric or Categorical.
	Kind() Kind
	// Len returns the number of cells (including missing cells).
	Len() int
	// Missing reports the number of missing cells.
	Missing() int
	// IsMissing reports whether cell i is missing.
	IsMissing(i int) bool
	// StringAt renders cell i for display ("" for missing cells).
	StringAt(i int) string
}

// NumericColumn is a column of float64 values. Missing values are
// stored as NaN, so the backing slice always has length Len().
type NumericColumn struct {
	name    string
	values  []float64
	missing int

	ranksOnce sync.Once
	ranks     []float64
}

// NewNumericColumn builds a numeric column over values. The slice is
// retained, not copied; callers must not mutate it afterwards.
func NewNumericColumn(name string, values []float64) *NumericColumn {
	missing := 0
	for _, v := range values {
		if math.IsNaN(v) {
			missing++
		}
	}
	return &NumericColumn{name: name, values: values, missing: missing}
}

// Name returns the attribute name.
func (c *NumericColumn) Name() string { return c.name }

// Kind returns Numeric.
func (c *NumericColumn) Kind() Kind { return Numeric }

// Len returns the number of cells.
func (c *NumericColumn) Len() int { return len(c.values) }

// Missing returns the number of NaN cells.
func (c *NumericColumn) Missing() int { return c.missing }

// IsMissing reports whether cell i is NaN.
func (c *NumericColumn) IsMissing(i int) bool { return math.IsNaN(c.values[i]) }

// StringAt renders cell i, or "" when missing.
func (c *NumericColumn) StringAt(i int) string {
	if c.IsMissing(i) {
		return ""
	}
	return fmt.Sprintf("%g", c.values[i])
}

// Values returns the backing slice (NaN = missing). Callers must treat
// it as read-only.
func (c *NumericColumn) Values() []float64 { return c.values }

// Present returns the non-missing values in order. It allocates a new
// slice only when the column contains missing values.
func (c *NumericColumn) Present() []float64 {
	if c.missing == 0 {
		return c.values
	}
	out := make([]float64, 0, len(c.values)-c.missing)
	for _, v := range c.values {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// At returns the value of cell i (possibly NaN).
func (c *NumericColumn) At(i int) float64 { return c.values[i] }

// Ranks returns the fractional ranks of the column's values
// (stats.Ranks: 1-based, ties averaged), computed on first use and
// kept with the column, which never changes. Exact Spearman scoring
// ranks each column once instead of once per pair. Columns with
// missing cells return nil: their ranks depend on which rows the other
// column of a pair also has, so callers rank per pair.
func (c *NumericColumn) Ranks() []float64 {
	if c.missing > 0 {
		return nil
	}
	c.ranksOnce.Do(func() { c.ranks = stats.Ranks(c.values) })
	return c.ranks
}

// CategoricalColumn is a dictionary-encoded string column. codes[i] is
// an index into dict, or -1 for a missing cell.
type CategoricalColumn struct {
	name    string
	codes   []int32
	dict    []string
	missing int
}

// NewCategoricalColumn builds a categorical column from raw string
// values. Empty strings are treated as missing. The dictionary is
// assigned in first-appearance order.
func NewCategoricalColumn(name string, values []string) *CategoricalColumn {
	codes := make([]int32, len(values))
	index := make(map[string]int32)
	var dict []string
	missing := 0
	for i, v := range values {
		if v == "" {
			codes[i] = -1
			missing++
			continue
		}
		code, ok := index[v]
		if !ok {
			code = int32(len(dict))
			dict = append(dict, v)
			index[v] = code
		}
		codes[i] = code
	}
	return &CategoricalColumn{name: name, codes: codes, dict: dict, missing: missing}
}

// NewCategoricalFromCodes builds a categorical column directly from
// dictionary codes. Codes must be -1 (missing) or valid indexes into
// dict; out-of-range codes cause an error.
func NewCategoricalFromCodes(name string, codes []int32, dict []string) (*CategoricalColumn, error) {
	missing := 0
	for i, code := range codes {
		switch {
		case code == -1:
			missing++
		case code < 0 || int(code) >= len(dict):
			return nil, fmt.Errorf("frame: column %q: code %d at row %d out of range [0,%d)", name, code, i, len(dict))
		}
	}
	return &CategoricalColumn{name: name, codes: codes, dict: dict, missing: missing}, nil
}

// Name returns the attribute name.
func (c *CategoricalColumn) Name() string { return c.name }

// Kind returns Categorical.
func (c *CategoricalColumn) Kind() Kind { return Categorical }

// Len returns the number of cells.
func (c *CategoricalColumn) Len() int { return len(c.codes) }

// Missing returns the number of missing cells.
func (c *CategoricalColumn) Missing() int { return c.missing }

// IsMissing reports whether cell i is missing.
func (c *CategoricalColumn) IsMissing(i int) bool { return c.codes[i] < 0 }

// StringAt renders cell i, or "" when missing.
func (c *CategoricalColumn) StringAt(i int) string {
	if c.codes[i] < 0 {
		return ""
	}
	return c.dict[c.codes[i]]
}

// Codes returns the backing code slice (-1 = missing). Read-only.
func (c *CategoricalColumn) Codes() []int32 { return c.codes }

// Dict returns the dictionary of distinct values. Read-only.
func (c *CategoricalColumn) Dict() []string { return c.dict }

// Cardinality returns the number of distinct non-missing values.
func (c *CategoricalColumn) Cardinality() int { return len(c.dict) }

// Counts returns the frequency of each dictionary entry, indexed by
// code. Missing cells are not counted.
func (c *CategoricalColumn) Counts() []int {
	counts := make([]int, len(c.dict))
	for _, code := range c.codes {
		if code >= 0 {
			counts[code]++
		}
	}
	return counts
}

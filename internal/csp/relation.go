package csp

import (
	"fmt"
	"sort"

	"hypertree/internal/budget"
)

// Table is a relation with named columns: Vars lists the variable index of
// each column, Rows the tuples. The relational operators below are the ones
// Acyclic Solving needs (thesis §2.2.3): natural join, semijoin, projection.
//
// The operators hash rows by uint64 tuple hashes (see rowIndex) instead of
// the original string keys; the string-keyed implementations are kept in
// relation_ref.go as differential-test references. All operators preserve
// input row order, so the two implementations produce identical tables.
//
// Join, Project and (*CSP).BagTable are the table materializers, and the
// one set both the reference solvers and the compiled query engine
// (internal/csp/engine) build from. Each ticks a budget.B once per unit of
// work — an enumeration step, a probed or emitted row — because
// materializing a bag walks |domain|^|bag| candidates and a join can
// multiply its inputs, so an adversarial instance makes the work doubly
// exponential in its size. When any limit trips the table is abandoned
// with a typed *InterruptedError. A nil budget never trips: the reference
// solvers pass nil, and an error there is a bug (see mustTable).
type Table struct {
	Vars []int
	Rows [][]Value
}

// sharedColumns returns, for tables a and b, the column positions of their
// common variables (parallel slices).
func sharedColumns(a, b *Table) (ai, bi []int) {
	posB := make(map[int]int, len(b.Vars))
	for j, v := range b.Vars {
		posB[v] = j
	}
	for i, v := range a.Vars {
		if j, ok := posB[v]; ok {
			ai = append(ai, i)
			bi = append(bi, j)
		}
	}
	return
}

// hashRow mixes the values of row at the given columns into a uint64. The
// hash is only a bucket discriminator: every probe re-verifies candidate
// rows value-by-value, so a collision costs a comparison, never a wrong
// answer (see rowIndex.matches).
func hashRow(row []Value, cols []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h ^= uint64(row[c])
		h *= 1099511628211
	}
	// Final avalanche so low-entropy value sets still spread over buckets.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// rowIndex buckets the rows of one table by the uint64 hash of their values
// at a fixed column set. Buckets keep insertion (row) order, and every probe
// verifies candidates exactly, so hash collisions degrade to linear scans of
// one bucket instead of producing phantom matches.
type rowIndex struct {
	rows [][]Value
	cols []int
	hash func(row []Value, cols []int) uint64
	m    map[uint64][]int32
}

// hashRowHook is the hash the relational operators use. Tests swap in
// adversarial hashes (e.g. a constant) to prove correctness never depends on
// hash quality; production code must not reassign it.
var hashRowHook = hashRow

// newRowIndex indexes rows on cols with the production hash. Tests inject
// adversarial hash functions (e.g. a constant) through newRowIndexFunc or by
// swapping hashRowHook.
func newRowIndex(rows [][]Value, cols []int) *rowIndex {
	return newRowIndexFunc(rows, cols, hashRowHook)
}

func newRowIndexFunc(rows [][]Value, cols []int, hash func([]Value, []int) uint64) *rowIndex {
	ix := &rowIndex{rows: rows, cols: cols, hash: hash, m: make(map[uint64][]int32, len(rows))}
	for i, r := range rows {
		h := hash(r, cols)
		ix.m[h] = append(ix.m[h], int32(i))
	}
	return ix
}

// matches reports whether indexed row ri agrees with probe at probeCols
// (parallel to the index's cols) — the exact comparison behind every hash
// bucket hit.
func (ix *rowIndex) matches(ri int32, probe []Value, probeCols []int) bool {
	row := ix.rows[ri]
	for k, c := range ix.cols {
		if row[c] != probe[probeCols[k]] {
			return false
		}
	}
	return true
}

// probe calls fn for each indexed row matching probe at probeCols, in row
// order. fn returning false stops the scan early.
func (ix *rowIndex) probe(probe []Value, probeCols []int, fn func(ri int32) bool) {
	for _, ri := range ix.m[ix.hash(probe, probeCols)] {
		if ix.matches(ri, probe, probeCols) {
			if !fn(ri) {
				return
			}
		}
	}
}

// contains reports whether any indexed row matches probe at probeCols.
func (ix *rowIndex) contains(probe []Value, probeCols []int) bool {
	found := false
	ix.probe(probe, probeCols, func(int32) bool { found = true; return false })
	return found
}

// InterruptedError is the typed error a materializer returns when its
// budget trips mid-table: the work is abandoned (no partial table escapes)
// and Reason says which limit ended it — deadline, node budget, or context
// cancellation.
type InterruptedError struct {
	Reason budget.StopReason
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("csp: table materialization interrupted (%s)", e.Reason)
}

// Interrupted wraps bu's latched stop reason. Call it only after a Tick or
// Check returned false, so the reason is already set.
func Interrupted(bu *budget.B) error {
	return &InterruptedError{Reason: bu.Reason()}
}

// mustTable unwraps a materializer run under a nil budget, which never
// trips: an error there is a bug.
func mustTable(t *Table, err error) *Table {
	if err != nil {
		panic(fmt.Sprintf("csp: unbudgeted materializer failed: %v", err))
	}
	return t
}

// Join computes the natural join a ⋈ b, ticking bu once per probing row of
// a and once per emitted row, which bounds both the scan and the (possibly
// multiplicative) output.
func Join(a, b *Table, bu *budget.B) (*Table, error) {
	ai, bi := sharedColumns(a, b)
	// Output columns: all of a, then b's non-shared.
	sharedB := make(map[int]bool, len(bi))
	for _, j := range bi {
		sharedB[j] = true
	}
	outVars := append([]int(nil), a.Vars...)
	var extraB []int
	for j, v := range b.Vars {
		if !sharedB[j] {
			outVars = append(outVars, v)
			extraB = append(extraB, j)
		}
	}
	ix := newRowIndex(b.Rows, bi)
	out := &Table{Vars: outVars}
	for _, ra := range a.Rows {
		if !bu.Tick() {
			return nil, Interrupted(bu)
		}
		stop := false
		ix.probe(ra, ai, func(ri int32) bool {
			if !bu.Tick() {
				stop = true
				return false
			}
			rb := b.Rows[ri]
			row := make([]Value, 0, len(outVars))
			row = append(row, ra...)
			for _, j := range extraB {
				row = append(row, rb[j])
			}
			out.Rows = append(out.Rows, row)
			return true
		})
		if stop {
			return nil, Interrupted(bu)
		}
	}
	return out, nil
}

// Semijoin computes a ⋉ b: the rows of a that join with at least one row of
// b. If a and b share no variables, the join would be a cross product, so
// the result is all of a's rows when b is nonempty and no rows when b is
// empty. The returned table is always a fresh *Table that shares no slice
// headers with a — callers may append to or filter the result's Rows without
// corrupting a (the row slices themselves stay shared, as in every branch).
func Semijoin(a, b *Table) *Table {
	ai, bi := sharedColumns(a, b)
	if len(ai) == 0 {
		if len(b.Rows) == 0 {
			return &Table{Vars: a.Vars}
		}
		return &Table{Vars: a.Vars, Rows: append([][]Value(nil), a.Rows...)}
	}
	ix := newRowIndex(b.Rows, bi)
	out := &Table{Vars: a.Vars}
	for _, ra := range a.Rows {
		if ix.contains(ra, ai) {
			out.Rows = append(out.Rows, ra)
		}
	}
	return out
}

// Project computes π_vars(a), deduplicating rows, ticking bu once per input
// row (the output is at most input-sized). Variables not present in a are
// ignored.
func Project(a *Table, vars []int, bu *budget.B) (*Table, error) {
	var cols []int
	var outVars []int
	pos := make(map[int]int, len(a.Vars))
	for i, v := range a.Vars {
		pos[v] = i
	}
	sorted := append([]int(nil), vars...)
	sort.Ints(sorted)
	for _, v := range sorted {
		if i, ok := pos[v]; ok {
			cols = append(cols, i)
			outVars = append(outVars, v)
		}
	}
	out := &Table{Vars: outVars}
	// Dedup by hashing the projected columns of the source rows directly;
	// candidates with equal hashes are verified against the already-emitted
	// row, so collisions cannot drop a distinct row.
	seen := make(map[uint64][]int32)
	for _, r := range a.Rows {
		if !bu.Tick() {
			return nil, Interrupted(bu)
		}
		h := hashRowHook(r, cols)
		dup := false
		for _, oi := range seen[h] {
			prev := out.Rows[oi]
			same := true
			for k := range cols {
				if prev[k] != r[cols[k]] {
					same = false
					break
				}
			}
			if same {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		row := make([]Value, len(cols))
		for i, c := range cols {
			row[i] = r[c]
		}
		seen[h] = append(seen[h], int32(len(out.Rows)))
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// TableOf materializes a constraint as a table.
func TableOf(c *Constraint) *Table {
	t := &Table{Vars: append([]int(nil), c.Scope...)}
	for _, row := range c.Tuples {
		t.Rows = append(t.Rows, append([]Value(nil), row...))
	}
	return t
}

// selectConsistent returns the rows of t agreeing with the partial
// assignment (assigned[v] true means variable v is pinned to assignment[v]).
func selectConsistent(t *Table, assignment []Value, assigned []bool) [][]Value {
	var out [][]Value
	for _, r := range t.Rows {
		ok := true
		for i, v := range t.Vars {
			if assigned[v] && assignment[v] != r[i] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

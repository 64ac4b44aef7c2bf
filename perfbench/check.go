package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"subtab/internal/core"
	"subtab/internal/query"
	"subtab/internal/table"
)

// view is a returned sub-table, as decoded from a /v1 response or
// converted from a core.SubTable.
type view struct {
	SourceRows []int      `json:"source_rows"`
	Cols       []string   `json:"cols"`
	Cells      [][]string `json:"cells"`
	ScopeRows  int        `json:"scope_rows"`
}

func viewOf(st *core.SubTable) *view {
	v := &view{SourceRows: st.SourceRows, Cols: st.Cols, Cells: make([][]string, st.View.NumRows())}
	for r := range v.Cells {
		row := make([]string, st.View.NumCols())
		for c := range row {
			row[c] = st.View.ColumnAt(c).CellString(r)
		}
		v.Cells[r] = row
	}
	return v
}

// checkView verifies a view against the generated table t: k distinct
// rows by l columns, every cell equal to the table's, every row satisfying
// every predicate.
func checkView(t *table.Table, v *view, k, l int, preds []query.Predicate) error {
	if len(v.SourceRows) != k || len(v.Cells) != k || len(v.Cols) != l {
		return fmt.Errorf("view is %d rows (%d cell rows) × %d cols, want %d×%d", len(v.SourceRows), len(v.Cells), len(v.Cols), k, l)
	}
	idx := make([]int, l)
	for j, name := range v.Cols {
		if idx[j] = t.ColumnIndex(name); idx[j] < 0 {
			return fmt.Errorf("unknown column %q", name)
		}
	}
	seen := make(map[int]bool, k)
	for i, r := range v.SourceRows {
		if r < 0 || r >= t.NumRows() || seen[r] {
			return fmt.Errorf("row %d out of range or repeated (table has %d rows)", r, t.NumRows())
		}
		seen[r] = true
		for _, p := range preds {
			if !p.Matches(t, r) {
				return fmt.Errorf("row %d fails predicate %s", r, p)
			}
		}
		if len(v.Cells[i]) != l {
			return fmt.Errorf("cell row %d has %d cells, want %d", i, len(v.Cells[i]), l)
		}
		for j, ci := range idx {
			if want := t.ColumnAt(ci).CellString(r); v.Cells[i][j] != want {
				return fmt.Errorf("cell (row %d, %s) = %q, table has %q", r, v.Cols[j], v.Cells[i][j], want)
			}
		}
	}
	return nil
}

// checkViewAny passes when the view is correct against any of the table
// versions that may have served it. A version on which fewer than k rows
// match the predicates must return all of them.
func checkViewAny(versions []*table.Table, v *view, k, l int, preds []query.Predicate) error {
	var err error
	for i := len(versions) - 1; i >= 0; i-- {
		t := versions[i]
		if err = checkView(t, v, min(k, matching(t, preds, k)), l, preds); err == nil {
			return nil
		}
	}
	return err
}

// matching counts the rows of t satisfying every predicate, stopping at
// limit.
func matching(t *table.Table, preds []query.Predicate, limit int) int {
	n := 0
	for r := 0; r < t.NumRows() && n < limit; r++ {
		ok := true
		for _, p := range preds {
			ok = ok && p.Matches(t, r)
		}
		if ok {
			n++
		}
	}
	return n
}

// fingerprint identifies a view's rows, columns and cells.
func fingerprint(v *view) string {
	h := sha256.New()
	for _, r := range v.SourceRows {
		h.Write([]byte(strconv.Itoa(r) + ","))
	}
	h.Write([]byte(strings.Join(v.Cols, "\x1f") + "\x1e"))
	for _, row := range v.Cells {
		h.Write([]byte(strings.Join(row, "\x1f") + "\x1e"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"subtab/internal/query"
)

// TestWorkloadsToy runs every workload at toy size, untraced and traced,
// and requires correct outputs, no failed ops, every declared metric, and
// probe counts that repeat exactly across two traced runs of one seed.
func TestWorkloadsToy(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 3, seconds: 1, toy: true, workDir: t.TempDir()}
			out, extra, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d first error %v", out.Correct, out.Attempted, out.Failed, extra.detail["first_error"])
			}
			for _, m := range endToEnd {
				if v, ok := out.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("untraced: metric %s = %+v, want a positive value", m, v)
				}
			}

			cfg.trace = true
			var counts []map[string]float64
			for run := 0; run < 2; run++ {
				out, extra, err := runWorkload(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 {
					t.Fatalf("traced: correct=%v failed=%d first error %v", out.Correct, out.Failed, extra.detail["first_error"])
				}
				for _, m := range perLayer {
					if _, ok := out.Metrics[m.name]; !ok {
						t.Errorf("traced: metric %s missing", m.name)
					}
				}
				if len(extra.spans) == 0 {
					t.Error("traced: no spans recorded")
				}
				counts = append(counts, extra.detail["probe_counts"].(map[string]float64))
			}
			if len(counts[0]) == 0 {
				t.Error("traced: probe counted nothing")
			}
			if !reflect.DeepEqual(counts[0], counts[1]) {
				t.Errorf("probe counts differ across runs of one seed:\n%v\n%v", counts[0], counts[1])
			}
		})
	}
}

// TestCheckViewRejects pins the correctness check: a wrong cell, a row
// failing its predicate and a wrong shape are each refused.
func TestCheckViewRejects(t *testing.T) {
	cfg := config{seed: 1, toy: true, workDir: t.TempDir()}
	e, err := setupExplore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ex := e.(*exploreEnv)
	st, err := ex.m.Select(exploreK, exploreL, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := viewOf(st)
	if err := checkView(ex.t, good, exploreK, exploreL, nil); err != nil {
		t.Fatalf("a correct view fails the check: %v", err)
	}
	bad := viewOf(st)
	bad.Cells[0][0] += "x"
	if checkView(ex.t, bad, exploreK, exploreL, nil) == nil {
		t.Error("a changed cell passes the check")
	}
	if checkView(ex.t, good, exploreK+1, exploreL, nil) == nil {
		t.Error("a view of the wrong shape passes the check")
	}
	// Every row fails "c > its own value" on a column where it is present.
	for _, ci := range ex.gen.nums {
		col := ex.t.ColumnAt(ci)
		if r := good.SourceRows[0]; !col.Missing(r) {
			p := query.Predicate{Col: col.Name, Op: query.Gt, Num: col.Nums[r]}
			if checkView(ex.t, good, exploreK, exploreL, []query.Predicate{p}) == nil {
				t.Error("a row failing its predicate passes the check")
			}
			return
		}
	}
	t.Fatal("no numeric column present in the first row")
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the command prints
// equal to the ones BENCHMARK.json declares, units included.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sort.Strings(e2e)
	mine := append([]string(nil), endToEnd...)
	sort.Strings(mine)
	if !reflect.DeepEqual(e2e, mine) {
		t.Errorf("end-to-end metrics: BENCHMARK.json has %v, the command prints %v", e2e, mine)
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the command prints %d", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the command prints %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"subtab/internal/binning"
	"subtab/internal/core"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/memgov"
	"subtab/internal/query"
	"subtab/internal/serve"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// Explore sizes: a 200k-row table with the scale threshold at 50k rows, so
// the matched sets of the generated predicates fall on both sides of it
// (exact k-means below, stratified sample plus mini-batch above).
const (
	exploreRows      = 200_000
	exploreThreshold = 50_000
	exploreK         = 10
	exploreL         = 8
	toyRows          = 3_000
)

// servingOptions trains a small embedding: selection cost does not depend
// on embedding quality, and set-up must stay a few seconds per build.
func servingOptions(seed int64) core.Options {
	return core.Options{
		Bins:        binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: seed},
		Corpus:      corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: seed},
		Embedding:   word2vec.Options{Dim: 8, Epochs: 1, Seed: seed},
		ClusterSeed: seed,
	}
}

type exploreEnv struct {
	cfg       config
	t         *table.Table // the generated table: the check reference
	m         *core.Model
	svc       *serve.Service
	tap       *handlerTap
	srv       *loopback
	c         *client
	gen       *predGen
	threshold int
	phase     int64
}

func setupExplore(cfg config) (env, error) {
	rows, threshold := exploreRows, exploreThreshold
	if cfg.toy {
		rows, threshold = toyRows, toyRows/4
	}
	ds := datagen.Flights(rows, cfg.seed)
	// A budget far above the working set: admission runs on every select
	// but never refuses.
	gov := memgov.New(8 << 30)
	svc := serve.NewService(serve.NewStore(serve.StoreOptions{Governor: gov}), servingOptions(cfg.seed))
	svc.SetAdmission(gov, 2*maxConns)
	// The service gets a copy, so the checks compare against a table the
	// program never touched.
	m, err := svc.AddTable("fl", ds.T.Clone(), nil, false)
	if err != nil {
		return nil, err
	}
	tap := &handlerTap{next: serve.NewHandler(svc, nil)}
	srv, err := startLoopback(tap)
	if err != nil {
		return nil, err
	}
	return &exploreEnv{
		cfg: cfg, t: ds.T, m: m, svc: svc, tap: tap, srv: srv,
		c: newClient(srv.url), gen: newPredGen(ds.T, m.B), threshold: threshold,
	}, nil
}

func (e *exploreEnv) prepare() error { return nil }

func (e *exploreEnv) close() {
	e.c.close()
	e.srv.close()
}

func (e *exploreEnv) layerCounters() map[string]float64 { return serviceCounters(e.svc) }

// run drives two closed-loop session clients until d has passed.
func (e *exploreEnv) run(d time.Duration, rec *recorder, tr *tracer) {
	e.tap.tr.Store(tr)
	defer e.tap.tr.Store(nil)
	e.phase++
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.cfg.seed*1_000_003 + e.phase*101 + int64(i)))
			e.session(rng, i, deadline, 0, rec, tr, false)
		}(i)
	}
	wg.Wait()
}

// probeOps is the length of the single-client probe.
const probeOps = 12

func (e *exploreEnv) probe(rec *recorder, tr *tracer) {
	e.tap.tr.Store(tr)
	defer e.tap.tr.Store(nil)
	rng := rand.New(rand.NewSource(e.cfg.seed*7_919 + 1))
	e.session(rng, 0, time.Time{}, probeOps, rec, tr, true)
}

// session is one client: it opens a session and loops selects — cycling
// through the predicate kinds — following about a third of them with a
// drill-down, until deadline (or for maxOps ops when maxOps > 0). probe
// traces every request and fingerprints every view.
func (e *exploreEnv) session(rng *rand.Rand, client int, deadline time.Time, maxOps int, rec *recorder, tr *tracer, probe bool) {
	id, err := e.c.openSession("fl")
	if err != nil {
		rec.fail("session", err)
		return
	}
	defer e.c.call(http.MethodDelete, "/v1/sessions/"+id, nil, nil, 0, 0)
	scale := map[string]int{"threshold": e.threshold}
	weights := map[string]float64{"view_count": 0.5}
	for i := 0; ; i++ {
		if maxOps > 0 && i >= maxOps || maxOps == 0 && !time.Now().Before(deadline) {
			return
		}
		preds := e.gen.draw(rng, (client+i)%numKinds, exploreK)
		body, _ := json.Marshal(map[string]any{"where": predDTOs(preds), "k": exploreK, "l": exploreL, "scale": scale, "weights": weights})
		traced := tr != nil && (probe || tr.sampled())
		var req, root int64
		var sp *open
		if traced {
			req = tr.newID()
			sp = tr.start("client.select", req, 0)
			root = sp.s.ID
		}
		start := time.Now()
		var v view
		err := e.c.call(http.MethodPost, "/v1/sessions/"+id+"/select", body, &v, req, root)
		ms := msSince(start)
		if sp != nil {
			sp.end()
		}
		if err != nil {
			rec.fail("view", err)
			continue
		}
		if err := checkView(e.t, &v, exploreK, exploreL, preds); err != nil {
			rec.badOutput("view", err)
			continue
		}
		rec.ok("view", ms)
		if probe {
			rec.addView(fingerprint(&v))
		}
		if traced {
			parts := []codePart{{e.m.B.Source(), 0}}
			stages, err := replaySelect(tr, req, root, e.m, parts, tableCells(e.t), preds, exploreK, e.threshold)
			if err != nil {
				rec.fail("replay", err)
			}
			tr.residual("core.select_rest_ms", req, "serve.handler", stages)
		}
		if rng.Intn(3) != 0 {
			continue
		}
		anchor := rng.Intn(len(v.SourceRows))
		col := v.Cols[rng.Intn(len(v.Cols))]
		body, _ = json.Marshal(map[string]any{"row": v.SourceRows[anchor], "col": col, "k": exploreK, "l": exploreL, "scale": scale, "weights": weights})
		if traced {
			req = tr.newID()
			sp = tr.start("client.drill", req, 0)
			root = sp.s.ID
		}
		start = time.Now()
		var dv view
		err = e.c.call(http.MethodPost, "/v1/sessions/"+id+"/drilldown", body, &dv, req, root)
		ms = msSince(start)
		if traced {
			sp.end()
		}
		if err != nil {
			rec.fail("drill", err)
			continue
		}
		if err := checkView(e.t, &dv, min(exploreK, dv.ScopeRows), exploreL, nil); err != nil {
			rec.badOutput("drill", err)
			continue
		}
		rec.ok("drill", ms)
		if probe {
			rec.addView(fingerprint(&dv))
		}
		if traced {
			tr.observe("session.scope_rows", float64(dv.ScopeRows))
		}
	}
}

// tableCells reads raw cells from a resident table: the residual reader
// a filter uses for rows on a bin boundary.
func tableCells(t *table.Table) binning.CellFn {
	return func(col int, rows []int) ([]string, error) {
		c := t.ColumnAt(col)
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = c.CellString(r)
		}
		return out, nil
	}
}

// serviceCounters snapshots the store, governor and limiter counters.
func serviceCounters(svc *serve.Service) map[string]float64 {
	st := svc.Store().Stats()
	out := map[string]float64{
		"serve.store_hits":       float64(st.Hits),
		"serve.store_disk_loads": float64(st.DiskLoads),
		"serve.store_builds":     float64(st.Builds),
		"serve.store_evictions":  float64(st.Evictions),
		"serve.limiter_sheds":    float64(svc.LimiterRejections()),
	}
	if gov := svc.Governor(); gov != nil {
		gs := gov.Stats()
		out["memgov.admitted"] = float64(gs.Admitted)
		out["memgov.rejected"] = float64(gs.Rejected)
		out["memgov.reclaims"] = float64(gs.Reclaims)
		out["memgov.peak_mib"] = float64(gs.PeakBytes) / (1 << 20)
	}
	return out
}

// Predicate kinds the generators cycle through, so every run carries the
// same mix whatever the seed draws within each kind.
const (
	kindNone       = iota // the whole table
	kindCatEq             // categorical equality
	kindAligned           // numeric bound on a bin cut: no residual reads
	kindNonAligned        // numeric bound off the cuts: residual cell reads
	kindConj              // categorical equality and a numeric bound
	numKinds
)

// predGen draws predicates over a generated table.
type predGen struct {
	t      *table.Table
	cats   []int             // low-cardinality categorical columns
	nums   []int             // numeric columns with bin cuts and few missing cells
	sorted map[int][]float64 // non-missing values of each numeric column, ascending
	cuts   map[int][]float64 // bin cuts of each numeric column
}

func newPredGen(t *table.Table, b *binning.Binned) *predGen {
	g := &predGen{t: t, sorted: map[int][]float64{}, cuts: map[int][]float64{}}
	for ci, c := range t.Columns() {
		switch {
		case c.Kind == table.Categorical && c.Distinct() <= 64 && c.MissingCount() == 0:
			g.cats = append(g.cats, ci)
		case c.Kind == table.Numeric && len(b.Cols[ci].Cuts) >= 2 && c.MissingCount()*10 < c.Len():
			vals := make([]float64, 0, c.Len())
			for r := 0; r < c.Len(); r++ {
				if !c.Missing(r) {
					vals = append(vals, c.Nums[r])
				}
			}
			sort.Float64s(vals)
			g.nums = append(g.nums, ci)
			g.sorted[ci] = vals
			g.cuts[ci] = b.Cols[ci].Cuts
		}
	}
	return g
}

// draw returns a predicate conjunction of the given kind that at least k
// rows satisfy.
func (g *predGen) draw(rng *rand.Rand, kind, k int) []query.Predicate {
	for attempt := 0; ; attempt++ {
		preds := g.make(rng, kind)
		if attempt >= 50 || g.matchesAtLeast(preds, k) {
			return preds
		}
	}
}

func (g *predGen) make(rng *rand.Rand, kind int) []query.Predicate {
	switch kind {
	case kindCatEq:
		return []query.Predicate{g.catEq(rng)}
	case kindAligned:
		ci := g.nums[rng.Intn(len(g.nums))]
		cuts := g.cuts[ci]
		return []query.Predicate{g.bound(rng, ci, cuts[rng.Intn(len(cuts))])}
	case kindNonAligned:
		return []query.Predicate{g.offCut(rng)}
	case kindConj:
		return []query.Predicate{g.catEq(rng), g.offCut(rng)}
	}
	return nil
}

// catEq picks a categorical column and the value of a random row, so
// values are drawn by frequency.
func (g *predGen) catEq(rng *rand.Rand) query.Predicate {
	ci := g.cats[rng.Intn(len(g.cats))]
	c := g.t.ColumnAt(ci)
	return query.Predicate{Col: c.Name, Op: query.Eq, Str: c.CellString(rng.Intn(c.Len()))}
}

// offCut is a bound at a value quantile between 10% and 90%, moved off
// any bin cut.
func (g *predGen) offCut(rng *rand.Rand) query.Predicate {
	ci := g.nums[rng.Intn(len(g.nums))]
	vals := g.sorted[ci]
	v := vals[int((0.1+0.8*rng.Float64())*float64(len(vals)-1))]
	for _, cut := range g.cuts[ci] {
		if v == cut {
			v += 0.5
		}
	}
	return g.bound(rng, ci, v)
}

func (g *predGen) bound(rng *rand.Rand, ci int, v float64) query.Predicate {
	op := query.Leq
	if rng.Intn(2) == 0 {
		op = query.Gt
	}
	return query.Predicate{Col: g.t.ColumnAt(ci).Name, Op: op, Num: v}
}

// matchesAtLeast reports whether at least k rows satisfy preds.
func (g *predGen) matchesAtLeast(preds []query.Predicate, k int) bool {
	return matching(g.t, preds, k) >= k
}

type predDTO struct {
	Col string  `json:"col"`
	Op  string  `json:"op"`
	Num float64 `json:"num"`
	Str string  `json:"str,omitempty"`
}

func predDTOs(preds []query.Predicate) []predDTO {
	out := make([]predDTO, 0, len(preds))
	for _, p := range preds {
		op := map[query.Op]string{query.Eq: "=", query.Leq: "<=", query.Gt: ">", query.NotMissing: "not_missing"}[p.Op]
		if op == "" {
			panic(fmt.Sprintf("perfbench: no wire name for op %v", p.Op))
		}
		out = append(out, predDTO{Col: p.Col, Op: op, Num: p.Num, Str: p.Str})
	}
	return out
}

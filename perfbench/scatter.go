package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"subtab/internal/core"
	"subtab/internal/datagen"
	"subtab/internal/query"
	"subtab/internal/serve"
	"subtab/internal/table"
)

const (
	scatterShards = 4
	// scatterPushdowns is how many distinct pushdown requests the pool
	// holds; each has a reference view computed before timing. A large pool
	// keeps a run's latency from hanging on a few drawn predicates.
	scatterPushdowns = 32
	// scatterFullEvery makes every scatterFullEvery-th select a full-table
	// one; the rest are pushdowns. An uneven mix keeps the median inside
	// one mode of the latency distribution rather than between two.
	scatterFullEvery = 4
)

// scatterReq is one pooled request. Pushdowns send threshold 1: a
// coordinator refuses any pushdown matching fewer rows than the threshold.
type scatterReq struct {
	preds     []query.Predicate
	threshold int
}

type scatterEnv struct {
	cfg       config
	t         *table.Table // the generated table: the check reference
	build     *serve.Service
	full      *core.Model // all four shards local: the reference model
	coord     *serve.Service
	worker    *loopback
	transport *countingTransport
	pool      []scatterReq // pool[0] is the full-table select
	refs      []string     // reference fingerprint of each pooled request
	seq       atomic.Int64 // position in the request stream
}

func setupScatter(cfg config) (env, error) {
	rows, threshold := exploreRows, exploreThreshold
	if cfg.toy {
		rows, threshold = toyRows, toyRows/4
	}
	ds := datagen.Flights(rows, cfg.seed)
	dir, err := os.MkdirTemp(cfg.workDir, "scatter-*")
	if err != nil {
		return nil, err
	}
	coordDir, workerDir := filepath.Join(dir, "coord"), filepath.Join(dir, "worker")
	if err := os.MkdirAll(workerDir, 0o755); err != nil {
		return nil, err
	}
	opts := servingOptions(cfg.seed)
	// The service gets a copy, so the checks compare against a table the
	// program never touched.
	build := serve.NewService(serve.NewStore(serve.StoreOptions{Dir: coordDir}), opts)
	full, err := build.AddTableSharded("fl", ds.T.Clone(), nil, scatterShards, false)
	if err != nil {
		return nil, err
	}

	e := &scatterEnv{cfg: cfg, t: ds.T, build: build, full: full}
	gen := newPredGen(ds.T, full.B)
	rng := rand.New(rand.NewSource(cfg.seed*31 + 7))
	e.pool = append(e.pool, scatterReq{threshold: threshold})
	for i := 0; i < scatterPushdowns; i++ {
		e.pool = append(e.pool, scatterReq{preds: gen.draw(rng, kindCatEq+i%(numKinds-1), exploreK), threshold: 1})
	}

	// Shards 2 and 3 (code and column files) and a copy of the model file
	// move to the worker's cache; the coordinator keeps 0 and 1.
	models, err := filepath.Glob(filepath.Join(coordDir, "*.subtab"))
	if err != nil || len(models) != 1 {
		return nil, fmt.Errorf("model file glob: %v %v", models, err)
	}
	raw, err := os.ReadFile(models[0])
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(workerDir, filepath.Base(models[0])), raw, 0o644); err != nil {
		return nil, err
	}
	codes, err := build.Store().ShardPaths("fl", scatterShards)
	if err != nil {
		return nil, err
	}
	cols, err := build.Store().ColumnShardPaths("fl", scatterShards)
	if err != nil {
		return nil, err
	}
	for _, i := range []int{2, 3} {
		for _, p := range []string{codes[i], cols[i]} {
			if err := os.Rename(p, filepath.Join(workerDir, filepath.Base(p))); err != nil {
				return nil, err
			}
		}
	}
	worker := serve.NewService(serve.NewStore(serve.StoreOptions{Dir: workerDir, AllowMissingShards: true}), opts)
	if e.worker, err = startLoopback(serve.NewHandler(worker, nil)); err != nil {
		return nil, err
	}
	e.transport = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2 * scatterShards}}
	shardClient := &http.Client{Transport: e.transport}
	e.coord = serve.NewService(serve.NewStore(serve.StoreOptions{
		Dir:                coordDir,
		AllowMissingShards: true,
		PrepareModel: func(n string, m *core.Model) error {
			if m.ShardSource() == nil || m.ShardSource().Complete() {
				return nil
			}
			sampler, err := serve.NewShardSampler(n, m, serve.ShardPeersOptions{Peers: []string{e.worker.url}, Client: shardClient})
			if err != nil {
				return err
			}
			m.SetShardSampler(sampler)
			return nil
		},
	}), opts)
	if _, err := worker.Model("fl"); err != nil {
		e.close()
		return nil, err
	}
	if _, err := e.coord.Model("fl"); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// prepare serves every pooled request from the all-local model: the
// reference each coordinator view must equal. The model keeps the moved
// shard files open, so it still holds all four.
func (e *scatterEnv) prepare() error {
	for _, r := range e.pool {
		st, err := e.build.SelectScaled("fl", queryOf(r.preds), exploreK, exploreL, nil, &core.ScaleOptions{Threshold: r.threshold})
		if err != nil {
			return fmt.Errorf("reference select: %w", err)
		}
		v := viewOf(st)
		if err := checkView(e.t, v, exploreK, exploreL, r.preds); err != nil {
			return fmt.Errorf("reference select: %w", err)
		}
		e.refs = append(e.refs, fingerprint(v))
	}
	return nil
}

func queryOf(preds []query.Predicate) *query.Query {
	if len(preds) == 0 {
		return nil
	}
	return &query.Query{Where: preds}
}

func (e *scatterEnv) close() {
	e.worker.close()
	e.transport.base.(*http.Transport).CloseIdleConnections()
}

func (e *scatterEnv) layerCounters() map[string]float64 { return serviceCounters(e.coord) }

func (e *scatterEnv) run(d time.Duration, rec *recorder, tr *tracer) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.client(deadline, 0, rec, tr, false)
		}(i)
	}
	wg.Wait()
}

func (e *scatterEnv) probe(rec *recorder, tr *tracer) {
	rpcs, bytes, nanos := e.transport.rpcs.Load(), e.transport.bytes.Load(), e.transport.nanos.Load()
	e.client(time.Time{}, probeOps, rec, tr, true)
	if tr != nil {
		n := e.transport.rpcs.Load() - rpcs
		tr.add("shard.rpcs", float64(n))
		tr.add("shard.wire_bytes", float64(e.transport.bytes.Load()-bytes))
		if n > 0 {
			tr.observe("shard.rpc_ms", float64(e.transport.nanos.Load()-nanos)/1e6/float64(n))
		}
	}
}

// next returns the pool index of the next request of the stream the
// clients share: every scatterFullEvery-th a full-table select, the others
// the pushdowns in pool order. The pool outnumbers the coordinator's sample
// cache, so every pushdown misses it, and a full-table select finds its
// entry unless a cache clear just dropped it.
func (e *scatterEnv) next() int {
	i := int(e.seq.Add(1) - 1)
	if i%scatterFullEvery == 0 {
		return 0
	}
	return 1 + (i-i/scatterFullEvery-1)%scatterPushdowns
}

// client issues the shared stream's requests until deadline (or for maxOps
// requests when maxOps > 0).
func (e *scatterEnv) client(deadline time.Time, maxOps int, rec *recorder, tr *tracer, probe bool) {
	for i := 0; ; i++ {
		if maxOps > 0 && i >= maxOps || maxOps == 0 && !time.Now().Before(deadline) {
			return
		}
		idx := e.next()
		r := e.pool[idx]
		traced := tr != nil && (probe || tr.sampled())
		var req int64
		var sp *open
		if traced {
			req = tr.newID()
			sp = tr.start("client.select", req, 0)
		}
		start := time.Now()
		st, err := e.coord.SelectScaled("fl", queryOf(r.preds), exploreK, exploreL, nil, &core.ScaleOptions{Threshold: r.threshold})
		ms := msSince(start)
		if sp != nil {
			sp.end()
		}
		if err != nil {
			rec.fail("view", err)
			continue
		}
		v := viewOf(st)
		if err := checkView(e.t, v, exploreK, exploreL, r.preds); err != nil {
			rec.badOutput("view", err)
			continue
		}
		if fp := fingerprint(v); fp != e.refs[idx] {
			rec.badOutput("view", fmt.Errorf("request %d: view differs from the all-local model's", idx))
			continue
		}
		rec.ok("view", ms)
		if probe {
			rec.addView(e.refs[idx])
		}
		if traced {
			e.replay(tr, req, sp.s.ID, r, st, rec)
		}
	}
}

// replay runs the request's stages on the all-local reference model: the
// per-shard filter and sample scan, the vector gather, mini-batch
// clustering and the paged gather of the selected cells.
func (e *scatterEnv) replay(tr *tracer, req, root int64, r scatterReq, st *core.SubTable, rec *recorder) {
	src := e.full.ShardSource()
	parts := make([]codePart, src.NumShards())
	for i := range parts {
		parts[i] = codePart{src.ShardSource(i), src.ShardStart(i)}
	}
	stages, err := replaySelect(tr, req, root, e.full, parts, e.full.CellSource().GatherCells, r.preds, exploreK, r.threshold)
	if err != nil {
		rec.fail("replay", err)
		return
	}
	sp := tr.start("table.gather", req, root)
	if _, err := table.GatherView(countingCells{e.full.CellSource(), tr}, "fl", st.SourceRows, st.ColIdx); err != nil {
		rec.fail("replay", err)
	}
	stages += sp.end()
	tr.residual("core.select_rest_ms", req, "client.select", stages)
}

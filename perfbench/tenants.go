package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"subtab/internal/binning"
	"subtab/internal/core"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/memgov"
	"subtab/internal/modelio"
	"subtab/internal/query"
	"subtab/internal/serve"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

const (
	tenantTables = 36
	// tenantBudget sits below the tables' total model bytes (about 30 MiB),
	// so the zipf tail is evicted and reloaded from the disk cache.
	tenantBudget = 16 << 20
	// tenantRate is the open-loop arrival rate, requests per second.
	tenantRate  = 40.0
	tenantChunk = 50 // rows per append
	tenantK     = 6
	tenantL     = 4
	tenantZipfS = 1.1
)

// tenant is one uploaded table and the benchmark's copy of its versions:
// every version a request in flight may have been served from.
type tenant struct {
	name    string
	dataset string
	rows    int
	present []int // columns at least half present in the first version
	nums    []int // numeric ones among them, for bounds

	write sync.Mutex // serializes this table's appends and replaces

	mu        sync.Mutex
	versions  []*table.Table
	installed int // index of the newest version the server acknowledged
}

// candidates returns the versions from index lo to the newest.
func (tn *tenant) candidates(lo int) []*table.Table {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return append([]*table.Table(nil), tn.versions[lo:]...)
}

func (tn *tenant) current() (int, *table.Table) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.installed, tn.versions[len(tn.versions)-1]
}

// stage records a version about to be sent and returns its index.
func (tn *tenant) stage(t *table.Table) int {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	tn.versions = append(tn.versions, t)
	return len(tn.versions) - 1
}

// unstage drops a staged version the server refused. Callers hold the
// write lock, so it is still the newest.
func (tn *tenant) unstage() {
	tn.mu.Lock()
	tn.versions = tn.versions[:len(tn.versions)-1]
	tn.mu.Unlock()
}

func (tn *tenant) install(i int) {
	tn.mu.Lock()
	tn.installed = max(tn.installed, i)
	tn.mu.Unlock()
}

type tenantsEnv struct {
	cfg     config
	svc     *serve.Service
	tap     *handlerTap
	srv     *loopback
	c       *client
	tenants []*tenant // by popularity rank
	phase   int64
}

func setupTenants(cfg config) (env, error) {
	n, budget := tenantTables, int64(tenantBudget)
	if cfg.toy {
		n, budget = 6, 5<<20
	}
	dir, err := os.MkdirTemp(cfg.workDir, "tenants-*")
	if err != nil {
		return nil, err
	}
	gov := memgov.New(budget)
	svc := serve.NewService(serve.NewStore(serve.StoreOptions{Dir: dir, MaxModels: 1 << 10, Governor: gov}), core.Default())
	svc.SetAdmission(gov, maxConns)
	tap := &handlerTap{next: serve.NewHandler(svc, nil)}
	srv, err := startLoopback(tap)
	if err != nil {
		return nil, err
	}
	e := &tenantsEnv{cfg: cfg, svc: svc, tap: tap, srv: srv, c: newClient(srv.url)}

	// Popularity rank i serves a fixed dataset and a fixed size on an even
	// 1000-4000 row ladder, jittered by the seed, so that what a hot table
	// costs does not swing with the seed; the seed draws the rows, the
	// arrivals and the requests. The one USF table (298 columns, about ten
	// times the preprocessing of the others) has 1000 rows and the lowest
	// popularity.
	rng := rand.New(rand.NewSource(cfg.seed*13 + 5))
	names := []string{"FL", "CY", "SP", "CC", "BL"}
	for i := 0; i < n; i++ {
		step := (i * 7) % n
		tn := &tenant{name: fmt.Sprintf("t%02d", i), dataset: names[i%len(names)], rows: 1000 + 3000*step/n + rng.Intn(101)}
		if i == n-1 {
			tn.dataset, tn.rows = "USF", 1000
		}
		e.tenants = append(e.tenants, tn)
	}

	for i, tn := range e.tenants {
		ds, err := datagen.ByName(tn.dataset, tn.rows, cfg.seed*1000+int64(i))
		if err != nil {
			e.close()
			return nil, err
		}
		tn.versions = []*table.Table{ds.T}
		for ci, c := range ds.T.Columns() {
			if c.MissingCount()*2 < c.Len() {
				tn.present = append(tn.present, ci)
				if c.Kind == table.Numeric {
					tn.nums = append(tn.nums, ci)
				}
			}
		}
		if _, err := e.upload(tn, ds.T, false, 0, 0); err != nil {
			e.close()
			return nil, fmt.Errorf("upload %s: %w", tn.name, err)
		}
	}
	return e, nil
}

// uploadQuery gives every upload the same small embedding and seed, and
// one training worker, so an upload leaves a core to the other connection.
func (e *tenantsEnv) uploadQuery(tn *tenant, replace bool) string {
	return fmt.Sprintf("/tables?name=%s&dim=8&epochs=1&workers=1&seed=%d&replace=%t", tn.name, e.cfg.seed, replace)
}

func (e *tenantsEnv) upload(tn *tenant, t *table.Table, replace bool, req, parent int64) ([]byte, error) {
	var body bytes.Buffer
	if err := t.WriteCSV(&body); err != nil {
		return nil, err
	}
	return body.Bytes(), e.c.call(http.MethodPost, e.uploadQuery(tn, replace), body.Bytes(), nil, req, parent)
}

func (e *tenantsEnv) prepare() error { return nil }

func (e *tenantsEnv) close() {
	e.c.close()
	e.srv.close()
}

func (e *tenantsEnv) layerCounters() map[string]float64 { return serviceCounters(e.svc) }

// Operation kinds of the open-loop mix.
const (
	opSelect = iota
	opAppend
	opReplace
)

type tenantOp struct {
	kind int
	tn   *tenant
	due  time.Time
	seed int64 // draws the op's predicates, anchor and data
}

// worker is one connection's state: its own sessions. A probe worker
// fingerprints its views.
type worker struct {
	sessions map[string]string
	probe    bool
}

// drawOp draws the op's table by popularity. Writes never go to the USF
// table: one of its re-uploads holds a core for about a second, and
// whether a run draws one would decide its tail latency.
func (e *tenantsEnv) drawOp(rng *rand.Rand, zipf *rand.Zipf, kind int) tenantOp {
	i := zipf.Uint64()
	for kind != opSelect && e.tenants[i].dataset == "USF" {
		i = zipf.Uint64()
	}
	return tenantOp{kind: kind, tn: e.tenants[i], seed: rng.Int63()}
}

// opBlock is the op mix: 35 selects, 3 appends and 2 replaces in every 40
// arrivals, in a seeded order within each block. Fixed proportions keep a
// run's queueing from swinging with how many writes the seed happens to
// draw.
var opBlock = func() []int {
	b := make([]int, 40)
	b[35], b[36], b[37], b[38], b[39] = opAppend, opAppend, opAppend, opReplace, opReplace
	return b
}()

// run sends requests open-loop at the fixed rate for d, from one generator
// to two connections; latency is timed from when each request was due.
func (e *tenantsEnv) run(d time.Duration, rec *recorder, tr *tracer) {
	e.tap.tr.Store(tr)
	defer e.tap.tr.Store(nil)
	e.phase++
	rng := rand.New(rand.NewSource(e.cfg.seed*1_000_003 + e.phase*101))
	zipf := rand.NewZipf(rng, tenantZipfS, 1, uint64(len(e.tenants)-1))
	interval := time.Duration(float64(time.Second) / tenantRate)
	n := int(d / interval)
	// Sized to every arrival of the phase, so the generator never blocks.
	ops := make(chan tenantOp, n)
	var wg sync.WaitGroup
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{sessions: map[string]string{}}
			for op := range ops {
				e.exec(w, op, rec, tr, tr.sampled())
			}
			e.closeSessions(w)
		}()
	}
	block := append([]int(nil), opBlock...)
	start := time.Now()
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		op := e.drawOp(rng, zipf, block[i%len(block)])
		op.due = start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(op.due))
		rec.addLateness(msSince(op.due))
		ops <- op
	}
	close(ops)
	wg.Wait()
}

// probeKinds is the probe's fixed op sequence.
var probeKinds = []int{opSelect, opSelect, opAppend, opReplace}

func (e *tenantsEnv) probe(rec *recorder, tr *tracer) {
	e.tap.tr.Store(tr)
	defer e.tap.tr.Store(nil)
	rng := rand.New(rand.NewSource(e.cfg.seed*7_919 + 1))
	zipf := rand.NewZipf(rng, tenantZipfS, 1, uint64(len(e.tenants)-1))
	w := &worker{sessions: map[string]string{}, probe: true}
	for i := 0; i < probeOps; i++ {
		op := e.drawOp(rng, zipf, probeKinds[i%len(probeKinds)])
		op.due = time.Now()
		e.exec(w, op, rec, tr, tr != nil)
	}
	e.closeSessions(w)
}

func (e *tenantsEnv) closeSessions(w *worker) {
	for _, id := range w.sessions {
		e.c.call(http.MethodDelete, "/v1/sessions/"+id, nil, nil, 0, 0)
	}
}

func (e *tenantsEnv) exec(w *worker, op tenantOp, rec *recorder, tr *tracer, traced bool) {
	rng := rand.New(rand.NewSource(op.seed))
	if !traced {
		tr = nil
	}
	switch op.kind {
	case opSelect:
		e.view(w, op.tn, rng, op.due, "view", 0, rec, tr)
	case opAppend:
		e.appendRows(op, rng, rec, tr)
	case opReplace:
		e.replace(w, op, rng, rec, tr)
	}
}

// preds draws a predicate conjunction over the tenant's newest version:
// none, a not-missing test, or a numeric bound at a value quantile of
// 40-90%.
func (tn *tenant) preds(rng *rand.Rand) []query.Predicate {
	switch x := rng.Intn(3); {
	case x == 1 && len(tn.nums) > 0:
		_, t := tn.current()
		c := t.ColumnAt(tn.nums[rng.Intn(len(tn.nums))])
		var vals []float64
		for r := 0; r < c.Len(); r++ {
			if !c.Missing(r) {
				vals = append(vals, c.Nums[r])
			}
		}
		sort.Float64s(vals)
		v := vals[int((0.4+0.5*rng.Float64())*float64(len(vals)-1))]
		return []query.Predicate{{Col: c.Name, Op: query.Leq, Num: v}}
	case x == 2:
		_, t := tn.current()
		return []query.Predicate{{Col: t.ColumnAt(tn.present[rng.Intn(len(tn.present))]).Name, Op: query.NotMissing}}
	}
	return nil
}

// view runs one session select on tn (reopening a stranded session once)
// and follows a third of them with a drill-down. op names the latency it
// records; from is the oldest version index the answer may come from
// (0 means the installed version at send time).
func (e *tenantsEnv) view(w *worker, tn *tenant, rng *rand.Rand, due time.Time, op string, from int, rec *recorder, tr *tracer) {
	preds := tn.preds(rng)
	body, _ := json.Marshal(map[string]any{"where": predDTOs(preds), "k": tenantK, "l": tenantL, "weights": map[string]float64{"view_count": 0.5}})
	for attempt := 0; attempt < 2; attempt++ {
		id, ok := w.sessions[tn.name]
		if !ok {
			var err error
			if id, err = e.c.openSession(tn.name); err != nil {
				rec.fail(op, err)
				return
			}
			w.sessions[tn.name] = id
		}
		lo, _ := tn.current()
		lo = max(lo, from)
		var req, root int64
		var sp *open
		if tr != nil {
			req = tr.newID()
			sp = tr.start("client."+op, req, 0)
			root = sp.s.ID
		}
		var v view
		err := e.c.call(http.MethodPost, "/v1/sessions/"+id+"/select", body, &v, req, root)
		if sp != nil {
			sp.end()
		}
		if stale(err) {
			delete(w.sessions, tn.name)
			continue
		}
		if err != nil {
			rec.fail(op, err)
			return
		}
		if err := checkViewAny(tn.candidates(lo), &v, tenantK, tenantL, preds); err != nil {
			rec.badOutput(op, fmt.Errorf("%s where %v: %w", tn.name, preds, err))
			return
		}
		rec.ok(op, msSince(due))
		if w.probe {
			rec.addView(fingerprint(&v))
		}
		if rng.Intn(3) == 0 {
			e.drill(id, tn, &v, lo, rng, rec, tr)
		}
		return
	}
	rec.fail(op, fmt.Errorf("%s: session stranded twice", tn.name))
}

func (e *tenantsEnv) drill(id string, tn *tenant, v *view, lo int, rng *rand.Rand, rec *recorder, tr *tracer) {
	body, _ := json.Marshal(map[string]any{
		"row": v.SourceRows[rng.Intn(len(v.SourceRows))], "col": v.Cols[rng.Intn(len(v.Cols))],
		"k": tenantK, "l": tenantL, "weights": map[string]float64{"view_count": 0.5},
	})
	var req, root int64
	if tr != nil {
		req = tr.newID()
		sp := tr.start("client.drill", req, 0)
		root = sp.s.ID
		defer sp.end()
	}
	start := time.Now()
	var dv view
	err := e.c.call(http.MethodPost, "/v1/sessions/"+id+"/drilldown", body, &dv, req, root)
	if stale(err) {
		return // a write stranded the session between select and drill
	}
	if err != nil {
		rec.fail("drill", err)
		return
	}
	if err := checkViewAny(tn.candidates(lo), &dv, min(tenantK, dv.ScopeRows), tenantL, nil); err != nil {
		rec.badOutput("drill", fmt.Errorf("%s: %w", tn.name, err))
		return
	}
	rec.ok("drill", msSince(start))
	if tr != nil {
		tr.observe("session.scope_rows", float64(dv.ScopeRows))
	}
}

// appendRows posts a same-schema chunk; the chunk's data seed comes from
// the op, so the rows are the same whatever the timing.
func (e *tenantsEnv) appendRows(op tenantOp, rng *rand.Rand, rec *recorder, tr *tracer) {
	tn := op.tn
	tn.write.Lock()
	defer tn.write.Unlock()
	ds, err := datagen.ByName(tn.dataset, tenantChunk, rng.Int63())
	if err != nil {
		rec.fail("append", err)
		return
	}
	_, cur := tn.current()
	next, err := cur.AppendRows(ds.T)
	if err != nil {
		rec.fail("append", err)
		return
	}
	var body bytes.Buffer
	if err := ds.T.WriteCSV(&body); err != nil {
		rec.fail("append", err)
		return
	}
	idx := tn.stage(next)
	var req, root int64
	if tr != nil {
		req = tr.newID()
		sp := tr.start("client.append", req, 0)
		root = sp.s.ID
		defer sp.end()
	}
	var resp struct {
		Rows int `json:"rows"`
	}
	if err := e.c.call(http.MethodPost, "/tables/"+tn.name+"/append", body.Bytes(), &resp, req, root); err != nil {
		tn.unstage()
		rec.fail("append", err)
		return
	}
	if resp.Rows != next.NumRows() {
		rec.badOutput("append", fmt.Errorf("%s: %d rows after append, want %d", tn.name, resp.Rows, next.NumRows()))
		return
	}
	tn.install(idx)
	rec.ok("append", msSince(op.due))
}

// replace re-uploads the tenant's table with fresh rows of the same
// dataset and size, then opens a session on it and selects: the first
// view, timed from when the replace was due.
func (e *tenantsEnv) replace(w *worker, op tenantOp, rng *rand.Rand, rec *recorder, tr *tracer) {
	tn := op.tn
	ds, err := datagen.ByName(tn.dataset, tn.rows, rng.Int63())
	if err != nil {
		rec.fail("first_view", err)
		return
	}
	tn.write.Lock()
	idx := tn.stage(ds.T)
	var req, root int64
	if tr != nil {
		req = tr.newID()
		sp := tr.start("client.replace", req, 0)
		root = sp.s.ID
		defer sp.end()
	}
	body, err := e.upload(tn, ds.T, true, req, root)
	var m *core.Model
	if err != nil {
		tn.unstage()
	} else {
		tn.install(idx)
		if tr != nil {
			m, err = e.svc.Model(tn.name)
		}
	}
	tn.write.Unlock()
	if err != nil {
		rec.fail("first_view", err)
		return
	}
	if id, ok := w.sessions[tn.name]; ok {
		e.c.call(http.MethodDelete, "/v1/sessions/"+id, nil, nil, 0, 0)
		delete(w.sessions, tn.name)
	}
	e.view(w, tn, rng, op.due, "first_view", idx, rec, tr)
	if tr != nil {
		e.replayPreprocess(tr, req, root, body, m, rec)
	}
}

// replayPreprocess replays a replace upload's stages: CSV parsing,
// binning, corpus construction, embedding training, and the model's
// persistence round trip. The rest of the upload span is the residual
// (affinity, indexing, store insert, disk write).
func (e *tenantsEnv) replayPreprocess(tr *tracer, req, root int64, body []byte, m *core.Model, rec *recorder) {
	opt := core.Default()
	opt.Embedding.Dim, opt.Embedding.Epochs, opt.Embedding.Workers = 8, 1, 1
	opt.Bins.Seed, opt.Corpus.Seed, opt.Embedding.Seed, opt.ClusterSeed = e.cfg.seed, e.cfg.seed, e.cfg.seed, e.cfg.seed
	var stages float64
	sp := tr.start("table.csv", req, root)
	t, err := table.ReadCSV("replay", bytes.NewReader(body))
	stages += sp.end()
	if err != nil {
		rec.fail("replay", err)
		return
	}
	sp = tr.start("binning.bin", req, root)
	b, err := binning.Bin(t, opt.Bins)
	stages += sp.end()
	if err != nil {
		rec.fail("replay", err)
		return
	}
	sp = tr.start("corpus.build", req, root)
	sentences := corpus.Build(b, opt.Corpus)
	stages += sp.end()
	tr.add("corpus.sentences", float64(len(sentences)))
	sp = tr.start("word2vec.train", req, root)
	word2vec.Train(sentences, opt.Embedding)
	stages += sp.end()
	var buf bytes.Buffer
	sp = tr.start("modelio.save", req, root)
	err = modelio.Save(&buf, m)
	stages += sp.end()
	if err != nil {
		rec.fail("replay", err)
		return
	}
	tr.add("modelio.bytes", float64(buf.Len()))
	sp = tr.start("modelio.load", req, root)
	_, err = modelio.Load(bytes.NewReader(buf.Bytes()))
	sp.end()
	if err != nil {
		rec.fail("replay", err)
		return
	}
	tr.residual("core.preprocess_rest_ms", req, "serve.handler", stages)
}

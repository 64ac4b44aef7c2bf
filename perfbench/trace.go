package main

// Tracing for the per-layer breakdown. The program has no spans of its own
// yet, so the benchmark records them around its calls into each layer: the
// real request (client side and, through a middleware, handler side) plus a
// replay of the request's stages through the packages' public functions,
// all under one request id. Counting wrappers sit on the code source, the
// cell source, the residual cell reader and the shard transport.

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"subtab/internal/binning"
	"subtab/internal/table"
)

// span is one timed interval of a traced request. Times are nanoseconds
// since the tracer started.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// sampleEvery is the share of timed requests the traced phase replays:
// one in sampleEvery, drawn from the seed.
const sampleEvery = 4

// tracer keeps spans, counts and per-request observations in memory.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	rng    *rand.Rand
	all    []span
	counts map[string]float64   // summed counts
	obs    map[string][]float64 // per-request observations, reported as means
	rest   []residual
}

// residual is a metric resolved when the run ends: the duration of request
// req's span named span, minus the replayed stage time. Spans recorded by
// the server-side middleware may land after the client has its answer.
type residual struct {
	metric, span string
	req          int64
	minus        float64
}

func newTracer(seed int64) *tracer {
	return &tracer{
		epoch:  time.Now(),
		rng:    rand.New(rand.NewSource(seed ^ 0x7ace)),
		counts: map[string]float64{},
		obs:    map[string][]float64{},
	}
}

// sampled reports whether the next timed request is traced; a nil tracer
// traces nothing.
func (t *tracer) sampled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Intn(sampleEvery) == 0
}

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

// open is a span in progress.
type open struct {
	t     *tracer
	s     span
	ended bool
}

// start opens a span named name under parent (0 for a root) in request req.
func (t *tracer) start(name string, req, parent int64) *open {
	return &open{t: t, s: span{Name: name, Req: req, ID: t.newID(), Parent: parent, Start: time.Since(t.epoch).Nanoseconds()}}
}

// end closes the span and returns its duration in ms.
func (o *open) end() float64 {
	if !o.ended {
		o.ended = true
		o.s.End = time.Since(o.t.epoch).Nanoseconds()
		o.t.mu.Lock()
		o.t.all = append(o.t.all, o.s)
		o.t.mu.Unlock()
	}
	return float64(o.s.End-o.s.Start) / 1e6
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) observe(name string, v float64) {
	t.mu.Lock()
	t.obs[name] = append(t.obs[name], v)
	t.mu.Unlock()
}

// residual records metric as request req's span called span minus the
// given stage time.
func (t *tracer) residual(metric string, req int64, span string, minus float64) {
	t.mu.Lock()
	t.rest = append(t.rest, residual{metric: metric, span: span, req: req, minus: minus})
	t.mu.Unlock()
}

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.all...)
}

func (t *tracer) countSnapshot() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// selfTimes returns each span's self time in ms: its duration minus the
// part of its interval covered by its children.
func selfTimes(all []span) map[int64]float64 {
	kids := map[int64][]span{}
	for _, s := range all {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]float64, len(all))
	for _, s := range all {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// layerMetrics folds the spans, counts and observations into per-layer
// metrics: a span name's metric is its mean self time in ms (span names
// are the metric names without the _ms suffix), a count's is its sum, an
// observation's is its mean.
func (t *tracer) layerMetrics() map[string]float64 {
	all := t.spans()
	self := selfTimes(all)
	sum, n := map[string]float64{}, map[string]float64{}
	for _, s := range all {
		sum[s.Name] += self[s.ID]
		n[s.Name]++
	}
	out := map[string]float64{}
	for name := range sum {
		out[name+"_ms"] = sum[name] / n[name]
	}
	type key struct {
		req  int64
		name string
	}
	dur := map[key]float64{}
	for _, s := range all {
		dur[key{s.Req, s.Name}] = float64(s.End-s.Start) / 1e6
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.rest {
		if d, ok := dur[key{r.req, r.span}]; ok {
			t.obs[r.metric] = append(t.obs[r.metric], d-r.minus)
		}
	}
	for k, v := range t.counts {
		out[k] = v
	}
	for k, vs := range t.obs {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		out[k] = s / float64(len(vs))
	}
	return out
}

func writeSpans(path string, all []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request headers carrying the trace context from client to middleware.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// handlerTap wraps serve.NewHandler: while a tracer is installed, requests
// that carry a trace context get a serve.handler span and their response
// bytes counted.
type handlerTap struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	if tr == nil || req == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	sp := tr.start("serve.handler", req, parent)
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	sp.end()
	tr.observe("serve.response_bytes", float64(cw.n))
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// countingTransport counts the coordinator's shard RPCs, the bytes they
// carry both ways, and their time until the response body is closed.
type countingTransport struct {
	base  http.RoundTripper
	rpcs  atomic.Int64
	bytes atomic.Int64
	nanos atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	c.rpcs.Add(1)
	if r.ContentLength > 0 {
		c.bytes.Add(r.ContentLength)
	}
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		c.nanos.Add(int64(time.Since(start)))
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: c, start: start}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	t      *countingTransport
	start  time.Time
	closed bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.bytes.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	if !b.closed {
		b.closed = true
		b.t.nanos.Add(int64(time.Since(b.start)))
	}
	return b.ReadCloser.Close()
}

// countingCodes counts the code blocks a stage reads.
type countingCodes struct {
	binning.CodeSource
	t *tracer
}

func (c countingCodes) ColumnBlock(col, blk int, scratch []uint16) []uint16 {
	c.t.add("codestore.blocks_read", 1)
	return c.CodeSource.ColumnBlock(col, blk, scratch)
}

// countingCells counts the cells a view gather reads.
type countingCells struct {
	table.CellSource
	t *tracer
}

func (c countingCells) GatherCells(col int, rows []int) ([]string, error) {
	c.t.add("colstore.cells_gathered", float64(len(rows)))
	return c.CellSource.GatherCells(col, rows)
}

// countingCellFn counts the boundary cells a filter resolves by reading
// the raw value.
func countingCellFn(fn binning.CellFn, t *tracer) binning.CellFn {
	if fn == nil {
		return nil
	}
	return func(col int, rows []int) ([]string, error) {
		t.add("binning.residual_cells", float64(len(rows)))
		return fn(col, rows)
	}
}

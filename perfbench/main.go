// Command perfbench is the repository benchmark: it runs the real serving
// stack (serve.NewStore → serve.NewService → serve.NewHandler on loopback) in
// this process, feeds it only tables and requests generated from --seed, and
// prints the end-to-end metrics of one named workload as a JSON object on the
// last line of standard output.
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
//
// Workloads (each chosen to stress a different layer):
//
//	explore  one resident 200k-row FL table; two closed-loop /v1 session
//	         clients alternating predicate-scoped selects and drill-downs.
//	         Every select stage runs on every request; preprocessing runs
//	         only in set-up.
//	scatter  the same table as 4 code and column shards, two on a worker
//	         Service reached over loopback HTTP; two closed-loop clients
//	         call the coordinator's Service.SelectScaled with full-table
//	         selects and predicate pushdowns. Exercises the shard wire codec,
//	         block stores and paged cell gathers, and bypasses sessions and
//	         the resident vector cache.
//	tenants  several dozen small tables uploaded through POST /tables under
//	         a memory budget below their total model bytes; open-loop
//	         arrivals of session selects, drill-downs, appends and replace
//	         uploads each followed by a first view. Preprocessing, model
//	         persistence, the governor and the store do most of the work.
//
// With --trace 1 the run instead reports per-layer metrics: the timed phase
// is split into an untraced and a traced half (their view_p50_ms difference
// is trace.overhead_pct), and a fixed single-client probe of the seeded
// request stream replays each request's stages through the packages' public
// functions under counting wrappers, so counts repeat exactly for a seed.
//
// Every response is checked: shape k×l, cells equal to the generated table,
// every row satisfying its predicates, and (scatter) fingerprints equal to a
// model holding all four shards locally. Any failed check makes the command
// exit non-zero after printing the result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// windows is how many equal windows the timed phase is cut into for
// view_p50_ms: the median of the windows' medians.
const windows = 4

// setupRuns is how many times a run builds its workload's serving stack;
// setup_s is the median, and the last build is the one measured.
const setupRuns = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the gated end-to-end metrics every workload reports with
// --trace 0. Op-specific figures that exist on only some workloads (drill,
// append, first view, failed ratio) and the p90 tails, whose run-to-run
// spread on a shared 2-core host exceeds any usable bound, are printed on
// the preceding line.
var endToEnd = []string{"setup_s", "view_p50_ms", "views_per_s", "peak_rss_mib"}

// perLayer lists every per-layer metric a --trace 1 run reports, with its
// unit. Layers a workload does not exercise report 0.
var perLayer = []struct{ name, unit string }{
	{"serve.handler_ms", "ms"},
	{"serve.response_bytes", "bytes"},
	{"serve.store_hits", "count"},
	{"serve.store_disk_loads", "count"},
	{"serve.store_builds", "count"},
	{"serve.store_evictions", "count"},
	{"serve.limiter_sheds", "count"},
	{"memgov.admitted", "count"},
	{"memgov.rejected", "count"},
	{"memgov.reclaims", "count"},
	{"memgov.peak_mib", "MiB"},
	{"binning.filter_ms", "ms"},
	{"binning.match_ratio", "ratio"},
	{"binning.residual_cells", "count"},
	{"codestore.blocks_read", "count"},
	{"shard.scan_ms", "ms"},
	{"shard.rpcs", "count"},
	{"shard.wire_bytes", "bytes"},
	{"shard.rpc_ms", "ms"},
	{"core.vectors_ms", "ms"},
	{"cluster.minibatch_ms", "ms"},
	{"cluster.kmeans_ms", "ms"},
	{"core.select_rest_ms", "ms"},
	{"table.gather_ms", "ms"},
	{"colstore.cells_gathered", "count"},
	{"session.scope_rows", "rows"},
	{"table.csv_ms", "ms"},
	{"binning.bin_ms", "ms"},
	{"corpus.build_ms", "ms"},
	{"corpus.sentences", "count"},
	{"word2vec.train_ms", "ms"},
	{"core.preprocess_rest_ms", "ms"},
	{"modelio.save_ms", "ms"},
	{"modelio.load_ms", "ms"},
	{"modelio.bytes", "bytes"},
	{"go.alloc_mib_per_view", "MiB"},
	{"go.gc_cycles_per_view", "count"},
	{"trace.overhead_pct", "%"},
}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	toy     bool   // toy sizes: the benchmark's own tests
	workDir string // the run's stores; removed when it ends
}

// env is a set-up workload, ready to serve.
type env interface {
	// run drives the workload's clients for d and records into rec. tr is
	// nil on untraced phases.
	run(d time.Duration, rec *recorder, tr *tracer)
	// prepare computes what the correctness checks compare against. It
	// runs once, after the timed set-ups.
	prepare() error
	// probe issues the fixed single-client prefix of the seeded request
	// stream (fresh sessions), recording each view's fingerprint in rec
	// and, with tr set, replaying every request's stages.
	probe(rec *recorder, tr *tracer)
	// layerCounters snapshots the program's cumulative store, governor and
	// limiter counters.
	layerCounters() map[string]float64
	close()
}

type workload struct {
	setup func(cfg config) (env, error)
	// viewOps names the ops counted as views for views_per_s.
	viewOps []string
}

var workloads = map[string]workload{
	"explore": {setup: setupExplore, viewOps: []string{"view", "drill"}},
	"scatter": {setup: setupScatter, viewOps: []string{"view"}},
	"tenants": {setup: setupTenants, viewOps: []string{"view", "drill"}},
}

func main() {
	name := flag.String("workload", "", "workload: explore, scatter or tenants")
	seed := flag.Int64("seed", 1, "seed of every generated table, request and arrival time")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload explore|scatter|tenants --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(".bench_build", "work-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: work}
	out, extra, err := runWorkload(*name, cfg)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		// Spans stay in memory during the run and are written out at its
		// end, next to the build outputs.
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, extra.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	detail, _ := json.Marshal(extra.detail)
	fmt.Println(string(detail))
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runExtra is what a run reports beside the result line.
type runExtra struct {
	detail map[string]any
	spans  []span
}

// runWorkload sets the workload up setupRuns times, measures the last
// set-up for cfg.seconds and returns the result line.
func runWorkload(name string, cfg config) (*result, runExtra, error) {
	wl := workloads[name]
	var e env
	var setups []float64
	nSetup := setupRuns
	if cfg.trace || cfg.toy {
		nSetup = 1
	}
	for i := 0; i < nSetup; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		e, err = wl.setup(cfg)
		if err != nil {
			return nil, runExtra{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	if err := e.prepare(); err != nil {
		return nil, runExtra{}, fmt.Errorf("%s: %w", name, err)
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	extra := runExtra{detail: map[string]any{}}
	metrics := map[string]metric{}

	// rec gathers every op of the run, for the checks and the failure
	// count; timed gathers the untraced timed phase, for the figures.
	// The probe runs first, on the freshly set-up stack, so its request
	// stream — and every count it takes — depends on the seed alone.
	rec, timed := newRecorder(), newRecorder()
	var probeTr *tracer
	if cfg.trace {
		probeTr = newTracer(cfg.seed)
	}
	e.probe(rec, probeTr)

	// Warm-up: lazy caches (sample caches, vector caches, connections) fill
	// before timing, as they would on a serving instance.
	e.run(min(d/10, time.Second), rec, nil)

	if !cfg.trace {
		start := time.Now()
		e.run(d, timed, nil)
		end := time.Now()
		views := timed.count(wl.viewOps...)
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["view_p50_ms"] = metric{timed.windowed("view", 0.5, start, end, windows), "ms"}
		metrics["views_per_s"] = metric{float64(views) / end.Sub(start).Seconds(), "1/s"}
		metrics["peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
	} else {
		// Untraced half, then traced half: the same clients, counting
		// wrappers, the handler middleware and replays only in the second.
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		e.run(d/2, timed, nil)
		runtime.ReadMemStats(&ms1)
		views := max(timed.count(wl.viewOps...), 1)
		before := e.layerCounters()
		trec := newRecorder()
		tr := newTracer(cfg.seed)
		e.run(d/2, trec, tr)
		after := e.layerCounters()
		base := quantile(timed.latencies("view"), 0.5)
		traced := quantile(trec.latencies("view"), 0.5)
		rec.merge(trec)

		layer := probeTr.layerMetrics()
		for k, v := range after {
			if k == "memgov.peak_mib" {
				layer[k] = v
			} else if _, counted := layer[k]; !counted {
				layer[k] = v - before[k]
			}
		}
		layer["go.alloc_mib_per_view"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(views)
		layer["go.gc_cycles_per_view"] = float64(ms1.NumGC-ms0.NumGC) / float64(views)
		if base > 0 {
			layer["trace.overhead_pct"] = 100 * (traced - base) / base
		}
		for _, m := range perLayer {
			metrics[m.name] = metric{layer[m.name], m.unit}
		}
		extra.spans = append(probeTr.spans(), tr.spans()...)
		extra.detail["probe_counts"] = probeTr.countSnapshot()
	}

	// Op-specific end-to-end figures and run health, printed beside the
	// gated metrics.
	rec.merge(timed)
	ops := map[string]any{}
	for _, op := range timed.ops() {
		lat := timed.latencies(op)
		ops[op] = map[string]any{
			"n":      len(lat),
			"p50_ms": quantile(lat, 0.5),
			"p90_ms": quantile(lat, 0.9),
		}
	}
	attempted, failed := rec.attempted.Load(), rec.failed.Load()
	extra.detail["workload"] = name
	extra.detail["ops"] = ops
	extra.detail["failed_ratio"] = float64(failed) / float64(max(attempted, 1))
	extra.detail["digest"] = rec.digest()
	extra.detail["health"] = health(timed, setups)
	if msg := rec.firstError(); msg != "" {
		extra.detail["first_error"] = msg
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", msg)
	}
	out := &result{
		Correct:   rec.checkFailures.Load() == 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Metrics:   metrics,
	}
	return out, extra, nil
}

func health(rec *recorder, setups []float64) map[string]any {
	h := map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"setups_s":    setups,
		"cpu_loop_ms": cpuLoopMS(),
	}
	if late := rec.lateness(); len(late) > 0 {
		sort.Float64s(late)
		h["generator_late_p50_ms"] = quantile(late, 0.5)
		h["generator_late_max_ms"] = late[len(late)-1]
	}
	return h
}

// cpuLoopMS times a fixed single-threaded integer loop: a slow reading
// next to slow metrics points at the host, not the program.
func cpuLoopMS() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 0 {
		fmt.Fprintln(os.Stderr, "unreachable")
	}
	return float64(time.Since(start).Microseconds()) / 1000
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// recorder collects one phase's client-side observations. Safe for
// concurrent use by the workload's clients.
type recorder struct {
	attempted     atomic.Int64
	failed        atomic.Int64 // failed or refused ops, check failures included
	checkFailures atomic.Int64

	mu    sync.Mutex
	lat   map[string][]float64   // op → latencies in ms
	done  map[string][]time.Time // op → completion times, parallel to lat
	late  []float64              // open-loop generator lateness, ms
	views []string               // probe view fingerprints, in stream order
	err   string
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]float64{}, done: map[string][]time.Time{}}
}

// ok records one successful op.
func (r *recorder) ok(op string, ms float64) {
	r.attempted.Add(1)
	now := time.Now()
	r.mu.Lock()
	r.lat[op] = append(r.lat[op], ms)
	r.done[op] = append(r.done[op], now)
	r.mu.Unlock()
}

// fail records a failed or refused op (5xx, transport error, 429).
func (r *recorder) fail(op string, err error) {
	r.attempted.Add(1)
	r.failed.Add(1)
	r.setErr(fmt.Sprintf("%s: %v", op, err))
}

// badOutput records an op whose response failed a correctness check.
func (r *recorder) badOutput(op string, err error) {
	r.checkFailures.Add(1)
	r.fail(op, fmt.Errorf("wrong output: %w", err))
}

func (r *recorder) setErr(msg string) {
	r.mu.Lock()
	if r.err == "" {
		r.err = msg
	}
	r.mu.Unlock()
}

func (r *recorder) firstError() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *recorder) addLateness(ms float64) {
	r.mu.Lock()
	r.late = append(r.late, ms)
	r.mu.Unlock()
}

func (r *recorder) lateness() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.late...)
}

func (r *recorder) addView(fp string) {
	r.mu.Lock()
	r.views = append(r.views, fp)
	r.mu.Unlock()
}

// digest hashes the probe's view fingerprints: equal digests mean the
// program selected the same sub-tables for the same seeded requests.
func (r *recorder) digest() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := sha256.New()
	for _, v := range r.views {
		h.Write([]byte(v))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// latencies returns op's latencies, sorted ascending.
func (r *recorder) latencies(op string) []float64 {
	r.mu.Lock()
	out := append([]float64(nil), r.lat[op]...)
	r.mu.Unlock()
	sort.Float64s(out)
	return out
}

// windowed splits [start, end) into n equal windows by completion time and
// returns the median over the windows of each window's q-quantile latency.
// A burst that slows one window moves the result less than it moves the
// quantile of the whole run.
func (r *recorder) windowed(op string, q float64, start, end time.Time, n int) float64 {
	r.mu.Lock()
	wins := make([][]float64, n)
	span := end.Sub(start)
	for i, t := range r.done[op] {
		w := int(int64(n) * int64(t.Sub(start)) / int64(span))
		if w >= 0 && w < n {
			wins[w] = append(wins[w], r.lat[op][i])
		}
	}
	r.mu.Unlock()
	var qs []float64
	for _, w := range wins {
		if len(w) > 0 {
			sort.Float64s(w)
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

func (r *recorder) count(ops ...string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, op := range ops {
		n += len(r.lat[op])
	}
	return n
}

func (r *recorder) ops() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for op := range r.lat {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// merge folds o into r.
func (r *recorder) merge(o *recorder) {
	r.attempted.Add(o.attempted.Load())
	r.failed.Add(o.failed.Load())
	r.checkFailures.Add(o.checkFailures.Load())
	o.mu.Lock()
	defer o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for op, l := range o.lat {
		r.lat[op] = append(r.lat[op], l...)
		r.done[op] = append(r.done[op], o.done[op]...)
	}
	r.late = append(r.late, o.late...)
	r.views = append(r.views, o.views...)
	if r.err == "" {
		r.err = o.err
	}
}

// quantile is the linearly interpolated q-quantile of sorted xs (0 for an
// empty sample).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"subtab/internal/shard"
)

// TestShardSamplerRejectsLyingPeer tampers with a worker's sample
// responses on the way to the coordinator — each frame is re-marshalled,
// so its checksum is valid and only the contents lie — and checks that
// every lie is refused with an error wrapping shard.ErrCorrupt and that
// the coordinator's sample cache stays empty.
func TestShardSamplerRejectsLyingPeer(t *testing.T) {
	const name = "t"
	coordDir, workerDir := splitCacheDir(t, name, 2500, 3, []int{1, 2})
	worker := NewService(NewStore(StoreOptions{Dir: workerDir, AllowMissingShards: true}), testOptions())
	base := NewHandler(worker, nil)
	var tamper atomic.Pointer[func(*shard.SampleResponse)]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f := tamper.Load()
		if f == nil || !strings.HasSuffix(r.URL.Path, "/sample") {
			base.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		base.ServeHTTP(rec, r)
		resp, err := shard.UnmarshalSampleResponse(rec.Body.Bytes())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		(*f)(resp)
		w.Write(resp.Marshal())
	}))
	t.Cleanup(srv.Close)

	coord := NewService(NewStore(StoreOptions{Dir: coordDir, AllowMissingShards: true}), testOptions())
	m, err := coord.Model(name)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewShardSampler(name, m, ShardPeersOptions{Peers: []string{srv.URL}, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := cs.(*shardSampler)
	cols := []int{0, 1, 2}
	const budget = 400

	firstStratum := func(r *shard.SampleResponse) int {
		for i, sm := range r.Summary.Strata {
			if sm.Row >= 0 {
				return i
			}
		}
		t.Fatal("response has no stratum minimum")
		return -1
	}
	for _, c := range []struct {
		name, want string
		lie        func(*shard.SampleResponse)
	}{
		{"lowered candidate hash", "not its seeded hash", func(r *shard.SampleResponse) { r.Summary.Cand[1].Hash = 0 }},
		{"changed stratum hash", "not its seeded hash", func(r *shard.SampleResponse) { r.Summary.Strata[firstStratum(r)].Hash ^= 1 }},
		{"more candidates than matched", "candidates, want", func(r *shard.SampleResponse) { r.Matched = len(r.Summary.Cand) - 1 }},
		{"dropped candidate", "candidates, want", func(r *shard.SampleResponse) { r.Summary.Cand = r.Summary.Cand[1:] }},
		{"candidates out of row order", "strictly ascend", func(r *shard.SampleResponse) {
			r.Summary.Cand[0], r.Summary.Cand[1] = r.Summary.Cand[1], r.Summary.Cand[0]
		}},
		{"stratum row carries another bin", "not the stratum's bin", func(r *shard.SampleResponse) {
			s := firstStratum(r)
			row := r.Summary.Strata[s].Row
			col := m.B.ColOfItem(int32(s))
			for k, rr := range r.Rows {
				if rr == row {
					r.Codes[col][k] = uint16((m.B.BinOfItem(int32(s)) + 1) % m.B.Cols[col].NumBins())
				}
			}
		}},
	} {
		tamper.Store(&c.lie)
		_, _, err := s.Sample(cols, budget)
		if !errors.Is(err, shard.ErrCorrupt) {
			t.Errorf("%s: error %v, want one wrapping shard.ErrCorrupt", c.name, err)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the lie (%q)", c.name, err, c.want)
		}
		s.mu.Lock()
		entries, bytes := len(s.cache), s.cacheBytes
		s.mu.Unlock()
		if entries != 0 || bytes != 0 {
			t.Fatalf("%s: sample cache holds %d entries (%d bytes) after a refused response", c.name, entries, bytes)
		}
	}

	// The same round with an honest peer is accepted and cached, so the
	// refusals above came from the lies, not from the harness.
	tamper.Store(nil)
	rows, overlay, err := s.Sample(cols, budget)
	if err != nil {
		t.Fatalf("honest peer: %v", err)
	}
	if len(rows) != budget || len(overlay) != m.T.NumCols() || len(overlay[0]) != budget {
		t.Fatalf("honest sample: %d rows, overlay %d columns", len(rows), len(overlay))
	}
	if len(s.cache) != 1 {
		t.Fatalf("honest sample not cached (%d entries)", len(s.cache))
	}
}

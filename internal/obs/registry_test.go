package obs

import (
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the binning rule: bounds are
// inclusive upper edges, values above the last bound land in overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{0, 10, 10.0001, 100, 999, 1000, 1000.5, 5e6} {
		h.Observe(v)
	}
	s := h.Snapshot("x")
	want := []int64{2, 2, 2, 2} // {0,10} {10.0001,100} {999,1000} {1000.5,5e6}
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d: got %d want %d (all: %v)", i, s.Counts[i], n, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	wantSum := 0.0 + 10 + 10.0001 + 100 + 999 + 1000 + 1000.5 + 5e6
	if s.Sum != wantSum {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {5, 5}, {10, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestHistogramMerge folds two per-worker snapshots and checks counts,
// totals and the layout-mismatch refusal.
func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.Observe(0.5)
	a.Observe(1.5)
	b.Observe(1.5)
	b.Observe(99)
	sa := a.Snapshot("m")
	sb := b.Snapshot("m")
	if err := sa.Merge(sb); err != nil {
		t.Fatal(err)
	}
	if got, want := sa.Counts, []int64{1, 2, 1}; !equalInt64(got, want) {
		t.Fatalf("merged counts = %v, want %v", got, want)
	}
	if sa.Count != 4 {
		t.Fatalf("merged count = %d, want 4", sa.Count)
	}
	if sa.Sum != 0.5+1.5+1.5+99 {
		t.Fatalf("merged sum = %g", sa.Sum)
	}

	c := NewHistogram([]float64{1, 3}).Snapshot("m")
	if err := sa.Merge(c); err == nil {
		t.Fatal("merge with mismatched bounds did not error")
	}
	d := NewHistogram([]float64{1}).Snapshot("m")
	if err := sa.Merge(d); err == nil {
		t.Fatal("merge with fewer bounds did not error")
	}
}

// TestHistogramConcurrentSnapshot hammers a histogram from many
// goroutines while snapshotting: every snapshot must be internally
// consistent (Count == sum of bucket counts) and the final state exact.
// Run under -race this is also the data-race gate for the hot path.
func TestHistogramConcurrentSnapshot(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10))
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i%1024) + float64(w))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		s := h.Snapshot("x")
		var sum int64
		for _, n := range s.Counts {
			sum += n
		}
		if sum != s.Count {
			t.Fatalf("torn snapshot: sum(Counts)=%d Count=%d", sum, s.Count)
		}
		select {
		case <-done:
			final := h.Snapshot("x")
			if final.Count != writers*perWriter {
				t.Fatalf("final count = %d, want %d", final.Count, writers*perWriter)
			}
			return
		default:
		}
	}
}

func TestRegistrySnapshotStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Add(3)
	r.Counter("aa_total").Inc()
	r.Gauge("queue_depth").Set(7)
	r.Histogram("lat_ns", []float64{1, 10}).Observe(5)
	r.Histogram("lat_ns", []float64{9999}).Observe(11) // same name: first layout wins
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "aa_total" || s.Counters[1].Name != "zz_total" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if s.Counters[1].Value != 3 || s.Counters[0].Value != 1 {
		t.Fatalf("counter values wrong: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 7 {
		t.Fatalf("gauge wrong: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms: %+v", s.Histograms)
	}
	h := s.Histograms[0]
	if len(h.Bounds) != 2 || h.Count != 2 {
		t.Fatalf("first-layout-wins violated: %+v", h)
	}
	// Same name returns the same instrument.
	if r.Counter("aa_total") != r.Counter("aa_total") {
		t.Fatal("counter get-or-create not idempotent")
	}
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lives", "has space", "dash-ed", "dot.ted"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for i := 0; i < 10; i++ {
		h.Observe(5) // all in first bucket
	}
	s := h.Snapshot("q")
	if q := s.Quantile(0.5); q <= 0 || q > 10 {
		t.Fatalf("p50 = %g, want within (0,10]", q)
	}
	if q := s.Quantile(1.0); q != 10 {
		t.Fatalf("p100 = %g, want 10", q)
	}
	h.Observe(1e9) // overflow clamps to last bound
	s = h.Snapshot("q")
	if q := s.Quantile(1.0); q != 30 {
		t.Fatalf("p100 with overflow = %g, want 30 (clamped)", q)
	}
	if q := (HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{0, 0}}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	// Observations {0, 1}: without a bucket bounded at 0 both share (0, 1]
	// and the median interpolates to 0.5, a value never observed; with one,
	// the median is the observed 0 and the maximum the observed 1.
	for _, c := range []struct {
		bounds  []float64
		p50, p1 float64
	}{
		{[]float64{1, 2, 4}, 0.5, 1},
		{[]float64{0, 1, 2, 4}, 0, 1},
	} {
		h := NewHistogram(c.bounds)
		h.Observe(0)
		h.Observe(1)
		s := h.Snapshot("q")
		if q := s.Quantile(0.5); q != c.p50 {
			t.Errorf("bounds %v: p50 of {0, 1} = %g, want %g", c.bounds, q, c.p50)
		}
		if q := s.Quantile(1); q != c.p1 {
			t.Errorf("bounds %v: p100 of {0, 1} = %g, want %g", c.bounds, q, c.p1)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(100, 10, 4)
	want := []float64{100, 1000, 10000, 100000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

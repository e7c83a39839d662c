package obs

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParsePrometheus feeds arbitrary bytes to the lint parser CI runs over
// every live daemon scrape. It must never panic, must allocate no more than
// its line buffer plus a fixed multiple of the input, and an exposition it
// accepts, rendered back family by family, must parse to the same families.
// The seed is the exposition of a registry holding a counter, a gauge and a
// histogram.
func FuzzParsePrometheus(f *testing.F) {
	r := NewRegistry()
	r.Counter("pathlog_intake_accepted_total").Add(42)
	r.Gauge("pathlog_intake_queue_depth").Set(3)
	h := r.Histogram("pathlog_replay_run_ns", ExpBuckets(1000, 10, 4))
	h.Observe(1500)
	h.Observe(2e9)
	var seed bytes.Buffer
	if err := WritePrometheus(&seed, r.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var fams map[string]PromFamily
		var err error
		if n, limit := allocatedBytes(func() {
			fams, err = ParsePrometheus(bytes.NewReader(data))
		}), uint64(1<<17+256*len(data)); n > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes, want at most %d", len(data), n, limit)
		}
		if err != nil {
			return
		}
		text := renderFamilies(fams)
		again, err := ParsePrometheus(strings.NewReader(text))
		if err != nil {
			t.Fatalf("re-rendered exposition refused: %v\n%s", err, text)
		}
		if !sameFamilies(fams, again) {
			t.Fatalf("re-rendered exposition parses to other families:\n%s", text)
		}
	})
}

// allocatedBytes returns the bytes the heap handed out while fn ran.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// renderFamilies writes families back as text exposition: each # TYPE line
// followed by its family's series, in name order.
func renderFamilies(fams map[string]PromFamily) string {
	var b strings.Builder
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f := fams[name]
		b.WriteString("# TYPE " + f.Name + " " + f.Type + "\n")
		series := make([]string, 0, len(f.Samples))
		for s := range f.Samples {
			series = append(series, s)
		}
		slices.Sort(series)
		for _, s := range series {
			b.WriteString(s + " " + strconv.FormatFloat(f.Samples[s], 'g', -1, 64) + "\n")
		}
	}
	return b.String()
}

// sameFamilies reports whether a and b hold the same families, types and
// series values (NaN equal to NaN).
func sameFamilies(a, b map[string]PromFamily) bool {
	if len(a) != len(b) {
		return false
	}
	for name, fa := range a {
		fb, ok := b[name]
		if !ok || fa.Name != fb.Name || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for s, va := range fa.Samples {
			vb, ok := fb.Samples[s]
			if !ok || (va != vb && !(math.IsNaN(va) && math.IsNaN(vb))) {
				return false
			}
		}
	}
	return true
}

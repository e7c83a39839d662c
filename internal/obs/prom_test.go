package obs

import (
	"strings"
	"testing"
)

// TestPrometheusRoundTrip renders a populated registry and feeds the text
// back through the lint parser — the exact pipeline CI runs over live
// daemon scrapes.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("pathlog_intake_accepted_total").Add(42)
	r.Gauge("pathlog_intake_queue_depth").Set(3)
	h := r.Histogram("pathlog_replay_run_ns", ExpBuckets(1000, 10, 5))
	h.Observe(1500)
	h.Observe(1500)
	h.Observe(2e9) // overflow

	var buf strings.Builder
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	fams, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("lint failed on own output:\n%s\n%v", text, err)
	}
	c, ok := fams["pathlog_intake_accepted_total"]
	if !ok || c.Type != "counter" || c.Samples["pathlog_intake_accepted_total"] != 42 {
		t.Fatalf("counter family wrong: %+v", c)
	}
	g := fams["pathlog_intake_queue_depth"]
	if g.Type != "gauge" || g.Samples["pathlog_intake_queue_depth"] != 3 {
		t.Fatalf("gauge family wrong: %+v", g)
	}
	hist := fams["pathlog_replay_run_ns"]
	if hist.Type != "histogram" {
		t.Fatalf("histogram family wrong: %+v", hist)
	}
	if hist.Samples[`pathlog_replay_run_ns_bucket{le="+Inf"}`] != 3 {
		t.Fatalf("+Inf bucket wrong: %+v", hist.Samples)
	}
	if hist.Samples[`pathlog_replay_run_ns_bucket{le="10000"}`] != 2 {
		t.Fatalf("cumulative bucket wrong: %+v", hist.Samples)
	}
	if hist.Samples["pathlog_replay_run_ns_count"] != 3 {
		t.Fatalf("_count wrong: %+v", hist.Samples)
	}
}

// TestParsePrometheusRejects pins the lint failures the parser exists to
// catch: each input is subtly broken the way a torn or miscoded scrape
// would be.
func TestParsePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "orphan_total 3\n",
		"unknown type":        "# TYPE x summary\nx 1\n",
		"bad value":           "# TYPE x counter\nx notanumber\n",
		"duplicate series":    "# TYPE x counter\nx 1\nx 2\n",
		"duplicate family":    "# TYPE x counter\nx 1\n# TYPE x counter\n",
		"histogram without +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"10\"} 1\nh_sum 5\nh_count 1\n",
		"decreasing cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"10\"} 5\nh_bucket{le=\"20\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"count disagrees with +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 7\n",
		"missing _sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"sample outside its block": "# TYPE a counter\n# TYPE b counter\na 1\n",
		// Found by FuzzParsePrometheus: with both spellings of one bound
		// the verdict used to follow map iteration order.
		"one bound spelled twice": "# TYPE h histogram\n" +
			"h_bucket{le=\"0\"} 0\nh_bucket{le=\"+0.\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 0\nh_count 2\n",
		"NaN bound": "# TYPE h histogram\n" +
			"h_bucket{le=\"NaN\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n",
	}
	for name, text := range cases {
		if _, err := ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parser accepted broken exposition:\n%s", name, text)
		}
	}
}

// TestParsePrometheusToleratesForeign accepts legal text we don't emit
// ourselves: HELP comments, blank lines, float counters.
func TestParsePrometheusToleratesForeign(t *testing.T) {
	text := "# HELP x something\n# TYPE x counter\n\nx 1.5\n"
	fams, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if fams["x"].Samples["x"] != 1.5 {
		t.Fatalf("parsed: %+v", fams)
	}
}

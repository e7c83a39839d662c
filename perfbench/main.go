// Command perfbench measures both sides of the balance the paper strikes:
// what instrumentation costs the user site when it records, and how long
// the developer site takes to reproduce the bug from the partial log.
//
// Each workload deploys its programs (compile, analyse, plan), then repeats
// rounds until the time is up, deploying again at even intervals between
// rounds so that set-up is timed across the whole run. A round draws one
// crashing input per shape from the seed, runs each on the user site with
// and without the plan, and reproduces each bug report at the developer
// site, checking that the reproducing input really crashes where the user's
// run did.
//
//	go run . --workload userver --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: end-to-end metrics
// with --trace 0, per-layer metrics (taken from spans around each layer
// call) with --trace 1. With --trace 1 the spans are also written as JSONL
// to --trace-dir.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: coreutils, userver, userver-all or diff")
	seed := flag.Uint64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "how long the rounds run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from spans, 0 end-to-end metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where --trace 1 writes the spans")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", *seconds))
	}
	b := &bench{
		w:     w,
		rng:   rand.New(rand.NewPCG(*seed, 0x9e3779b97f4a7c15)),
		spans: newSpans(*trace == 1),
	}
	res, err := b.run(context.Background(), time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fail(err)
	}
	if *trace == 1 {
		res.Metrics = b.layerMetrics()
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
		if err := b.spans.write(path); err != nil {
			fail(err)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result is the benchmark's one line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

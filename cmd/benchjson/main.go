// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark numbers become a machine-readable artifact a
// perf trajectory can be tracked over (CI commits BENCH_replay.json per
// run; diffs show regressions).
//
// It reads bench output from stdin or from the files named as arguments and
// writes one JSON object: the environment lines go test prints (goos,
// goarch, pkg, cpu) plus one entry per benchmark with its iteration count
// and every reported metric keyed by unit.
//
// Repeated runs of the same benchmark (`go test -count N`) are collapsed to
// one entry holding, for each metric, its median across the repetitions:
// on a noisy shared machine a central value estimates the cost more stably
// than any single run, and each metric gets its own, so a ratio such as
// overhead-x is not whatever the repetition with the lowest ns/op happened
// to read. -min-runs makes the de-noising mandatory:
// a benchmark that appears fewer times than required fails the conversion
// loudly rather than producing a one-sample artifact that the regression
// gate then trusts. -min-iterations likewise rejects runs whose b.N fell
// below the expected floor (a sign the harness was cut short).
//
// With -baseline it additionally gates on a committed document: every
// baseline benchmark must be present in the fresh run, and for each it
// compares every -gate metric (a comma-separated list, default
// ns/replay-run) the baseline entry carries and exits nonzero when any
// fresh value regresses by more than -max-regress percent, which is how
// CI's bench-smoke job fails a PR that slows the replay engine down.
// Gating a search's total time (ns/op) and run count beside its per-run
// cost keeps a search that wastes runs from passing on a cheap per-run
// figure, and a search that needs fewer, fuller runs from failing on one.
//
// A gate metric may carry its own bound as metric=percent. Counts that
// depend only on the code (a search's runs, the solver work it charges)
// are gated with =0: any increase fails, while times keep the -max-regress
// allowance for a noisy host.
//
// Usage:
//
//	go test -bench '^BenchmarkReplay' -count 3 . | benchjson -min-runs 3 -o BENCH_replay.json
//	benchjson bench.txt
//	benchjson -baseline BENCH_replay.json -gate ns/op,replay-runs=0,ns/replay-run -max-regress 20 bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with any -GOMAXPROCS suffix preserved
	// (e.g. "BenchmarkTable5/exp4-8").
	Name string `json:"name"`
	// Iterations is b.N — how many times the body ran.
	Iterations int64 `json:"iterations"`
	// Runs is how many repetitions of this benchmark the input held; the
	// entry holds the median of each metric (and of b.N) over them.
	Runs int `json:"runs,omitempty"`
	// Metrics maps each reported unit to its value ("ns/op",
	// "replay-runs", "B/op", ...).
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the whole converted document.
type Doc struct {
	// Env holds the context lines go test prints before the benchmarks
	// (goos, goarch, pkg, cpu).
	Env map[string]string `json:"env,omitempty"`
	// Benchmarks lists every parsed benchmark line in input order.
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "committed baseline JSON to gate against")
	gate := flag.String("gate", "ns/replay-run", "comma-separated metrics the -baseline gate compares, each optionally metric=percent")
	maxRegress := flag.Float64("max-regress", 20, "max allowed regression in percent of a -gate metric without its own bound")
	minRuns := flag.Int("min-runs", 1, "required repetitions per benchmark (use with go test -count)")
	minIters := flag.Int64("min-iterations", 1, "required b.N floor per benchmark run")
	flag.Parse()

	doc := Doc{Env: map[string]string{}}
	readAll := func(r io.Reader) error { return parse(r, &doc) }
	if flag.NArg() == 0 {
		if err := readAll(os.Stdin); err != nil {
			fatal(err)
		}
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		err = readAll(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found"))
	}
	gates, err := parseGates(*gate, *maxRegress)
	if err != nil {
		fatal(err)
	}
	if err := collapse(&doc, *minRuns, *minIters); err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	if *baseline != "" {
		if err := compare(&doc, *baseline, gates); err != nil {
			fatal(err)
		}
	}
}

// collapse de-noises repeated benchmark runs: entries with the same name
// become one, in first-appearance order, holding the median of each metric
// over the repetitions that report it and the median b.N, tagged with the
// repetition count. It errors if any benchmark ran fewer than minRuns times
// or with fewer than minIters iterations — silent under-measurement is
// exactly what the flags exist to catch.
func collapse(doc *Doc, minRuns int, minIters int64) error {
	byName := make(map[string]int)
	var reps [][]Result
	for _, fresh := range doc.Benchmarks {
		if fresh.Iterations < minIters {
			return fmt.Errorf("%s ran %d iteration(s), need at least %d",
				fresh.Name, fresh.Iterations, minIters)
		}
		i, seen := byName[fresh.Name]
		if !seen {
			i = len(reps)
			byName[fresh.Name] = i
			reps = append(reps, nil)
		}
		reps[i] = append(reps[i], fresh)
	}
	outList := make([]Result, 0, len(reps))
	for _, rs := range reps {
		if len(rs) < minRuns {
			return fmt.Errorf("%s has %d run(s), need at least %d (go test -count)",
				rs[0].Name, len(rs), minRuns)
		}
		iters := make([]float64, len(rs))
		byUnit := make(map[string][]float64)
		for k, r := range rs {
			iters[k] = float64(r.Iterations)
			for unit, v := range r.Metrics {
				byUnit[unit] = append(byUnit[unit], v)
			}
		}
		out := Result{Name: rs[0].Name, Iterations: int64(median(iters)), Runs: len(rs),
			Metrics: make(map[string]float64, len(byUnit))}
		for unit, vs := range byUnit {
			out.Metrics[unit] = median(vs)
		}
		outList = append(outList, out)
	}
	doc.Benchmarks = outList
	return nil
}

// median returns the middle value of vs, or the mean of the two middle
// values when there are evenly many. It sorts vs.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// gate is one metric the baseline gate compares and the regression it
// allows, in percent.
type gate struct {
	metric     string
	maxRegress float64
}

// parseGates reads a -gate list: comma-separated metrics, each either bare
// (allowed def percent) or metric=percent.
func parseGates(spec string, def float64) ([]gate, error) {
	var gates []gate
	for _, f := range strings.Split(spec, ",") {
		g := gate{metric: f, maxRegress: def}
		if m, pct, ok := strings.Cut(f, "="); ok {
			v, err := strconv.ParseFloat(pct, 64)
			if err != nil || !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("bad bound %q in -gate %q: want metric=percent", pct, spec)
			}
			g = gate{metric: m, maxRegress: v}
		}
		if g.metric == "" {
			return nil, fmt.Errorf("empty metric in -gate %q", spec)
		}
		gates = append(gates, g)
	}
	return gates, nil
}

// compare gates doc against the committed baseline document: every
// baseline benchmark must appear in the fresh run, and none may regress any
// gate metric by more than its bound. Lower is better for every gated
// metric (times and counts). A baseline value of zero is gated too: any
// fresh value above it regresses. Names match exactly, else
// without the -GOMAXPROCS suffix go test appends on multi-core hosts, when
// that leaves one fresh benchmark: a run at -cpu 1,2 keeps its "X" and
// "X-2" rows apart, and a run on a host with another CPU count still finds
// its rows. A baseline
// benchmark missing from the fresh run fails the gate, so renaming or
// deleting a benchmark cannot silently drop it; a fresh benchmark the
// baseline lacks, or a metric one side does not carry, is skipped — adding
// benchmarks never blocks.
func compare(doc *Doc, path string, gates []gate) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Doc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	freshBy := make(map[string]Result, len(doc.Benchmarks))
	byBase := make(map[string][]Result, len(doc.Benchmarks))
	for _, r := range doc.Benchmarks {
		freshBy[r.Name] = r
		byBase[baseName(r.Name)] = append(byBase[baseName(r.Name)], r)
	}
	var missing, names []string
	var regressed []gate
	for _, g := range gates {
		names = append(names, g.metric)
	}
	compared := 0
	for _, b := range base.Benchmarks {
		fresh, ok := freshBy[b.Name]
		if rs := byBase[baseName(b.Name)]; !ok && len(rs) == 1 {
			fresh, ok = rs[0], true
		}
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		for _, g := range gates {
			was, ok1 := b.Metrics[g.metric]
			now, ok2 := fresh.Metrics[g.metric]
			if !ok1 || !ok2 || was < 0 {
				continue
			}
			compared++
			status := "ok"
			if (was == 0 && now > 0) || (was > 0 && (now-was)/was*100 > g.maxRegress) {
				status = "REGRESSION"
				regressed = append(regressed, g)
			}
			fmt.Fprintf(os.Stderr, "benchjson: %-40s %s %s -> %s (%s, bound %g%%) %s\n",
				fresh.Name, g.metric, num(was), num(now), change(was, now), g.maxRegress, status)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("baseline %s benchmark(s) missing from the fresh run: %s",
			path, strings.Join(missing, ", "))
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s shares no %q metrics with the fresh run", path, strings.Join(names, ","))
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark metric(s) regressed %s over %s",
			len(regressed), describe(regressed), path)
	}
	return nil
}

// describe lists regressed gates by bound, in order of first appearance:
// "ns/op,replay-runs by more than 20%; work/call by more than 0%".
func describe(gates []gate) string {
	var bounds []float64
	byBound := map[float64][]string{}
	for _, g := range gates {
		if _, ok := byBound[g.maxRegress]; !ok {
			bounds = append(bounds, g.maxRegress)
		}
		byBound[g.maxRegress] = append(byBound[g.maxRegress], g.metric)
	}
	parts := make([]string, len(bounds))
	for i, b := range bounds {
		parts[i] = fmt.Sprintf("%s by more than %g%%", strings.Join(byBound[b], ","), b)
	}
	return strings.Join(parts, "; ")
}

// change formats the relative change from was to now.
func change(was, now float64) string {
	if was == 0 {
		if now == 0 {
			return "+0.0%"
		}
		return "from zero"
	}
	return fmt.Sprintf("%+.1f%%", (now-was)/was*100)
}

// num formats a metric value for the gate's report: whole and large
// values as integers, small fractional ones (ratios such as overhead-x) to
// four significant digits.
func num(v float64) string {
	if v == math.Trunc(v) || math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// baseName strips the -GOMAXPROCS suffix go test appends to a benchmark
// name when GOMAXPROCS > 1 ("BenchmarkReplay-4" -> "BenchmarkReplay").
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parse scans go test bench output: "key: value" context lines and
// "BenchmarkName<TAB>N<TAB>value unit[<TAB>value unit...]" result lines.
// Everything else (PASS, ok, test logs) is ignored.
func parse(r io.Reader, doc *Doc) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
				if v, ok := strings.CutPrefix(line, key+": "); ok {
					doc.Env[key] = strings.TrimSpace(v)
				}
			}
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("benchjson: bad value %q in %q", fields[i], line)
			}
			res.Metrics[fields[i+1]] = v
		}
		doc.Benchmarks = append(doc.Benchmarks, res)
	}
	return sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"

	"pathlog"
)

const (
	// setupReps is how many times a run deploys the workload's apps: once
	// before the first round, then at even intervals between the timed
	// rounds, so that a slow or fast stretch of the host does not fall on
	// every set-up at once. setup_s is the median.
	setupReps = 7
	// recordPairs is how many uninstrumented and instrumented user-site runs
	// each report times, alternating which goes first; the per-report figure
	// is the median of each.
	recordPairs = 9
	// minRounds holds a run to at least this many timed rounds, however short
	// --seconds is.
	minRounds = 3
	// replayMaxRuns and replayBudget bound one reproduction; a search that
	// hits either counts as a failed report. The longest search of any
	// workload takes about 200 runs and a fifth of a second.
	replayMaxRuns = 4000
	replayBudget  = 10 * time.Second
)

type bench struct {
	w     *workload
	rng   *rand.Rand
	spans *spans

	setups  []float64 // seconds per set-up
	rounds  []round
	reports []report // every timed report, in order
}

// deployed is one app after set-up: its program and the two builds the user
// site runs, instrumented under the plan and uninstrumented.
type deployed struct {
	prog *pathlog.Program
	plan *pathlog.Plan
	none *pathlog.Plan
}

// report is what one crashing input cost on both sides.
type report struct {
	shape       string
	noneUS      float64 // uninstrumented user-site run, median of recordPairs
	planUS      float64 // instrumented user-site run, median of recordPairs
	steps       int64
	instrExecs  int64
	bits        int64
	reportBytes int64
	reproduceMS float64
	runs        int
	solverCalls int
	solverTime  time.Duration
}

// round aggregates one report per shape.
type round struct {
	userUS      float64 // mean uninstrumented user-site run
	recordUS    float64 // mean instrumented user-site run
	reproduceMS float64 // mean time to reproduce one report
	overhead    float64 // instrumented over uninstrumented user-site time
	reproduceX  float64 // time to reproduce over uninstrumented user-site time
}

func (b *bench) run(ctx context.Context, dur time.Duration) (*result, error) {
	deps, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}

	res := &result{}
	// The first round warms the compile cache and the allocator; it is
	// checked like every other round but not timed.
	mark := b.spans.mark()
	if _, err := b.round(ctx, deps, res); err != nil {
		return nil, err
	}
	b.spans.truncate(mark)
	b.reports = nil
	start := time.Now()
	for len(b.rounds) < minRounds || len(b.setups) < setupReps || time.Since(start) < dur {
		// With k set-ups done, the next is due once k/setupReps of the time
		// has gone by; it replaces the apps the next rounds run on.
		due := dur * time.Duration(len(b.setups)) / setupReps
		if len(b.setups) < setupReps && time.Since(start) >= due {
			if deps, err = b.setup(ctx); err != nil {
				return nil, err
			}
			continue
		}
		r, err := b.round(ctx, deps, res)
		if err != nil {
			return nil, err
		}
		b.rounds = append(b.rounds, r)
	}
	res.Correct = res.Failed == 0
	res.Metrics = b.endToEnd()
	return res, nil
}

// setup deploys every app of the workload: compile, pre-deployment
// analysis, plan — the developer's work before any user runs the program.
// It starts from a collected heap, as every report does, and appends its
// time to b.setups.
func (b *bench) setup(ctx context.Context) ([]deployed, error) {
	runtime.GC()
	start := time.Now()
	defer func() { b.setups = append(b.setups, time.Since(start).Seconds()) }()
	root := b.spans.start("setup", -1)
	defer b.spans.end(root)
	out := make([]deployed, len(b.w.apps))
	for i, a := range b.w.apps {
		sp := b.spans.start("compile", root)
		prog := a.program()
		b.spans.end(sp)

		// Every deployed build logs syscall results, as the paper's
		// dynamic+static configuration does.
		opts := append(slices.Clone(a.opts), pathlog.WithSyscallLog())
		if b.w.strategy != nil {
			opts = append(opts, pathlog.WithStrategy(b.w.strategy))
		}
		sess := pathlog.NewSession(prog, a.analysisSpec, opts...)
		sp = b.spans.start("analyze", root)
		_, err := sess.Analyze(ctx)
		b.spans.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: analyze: %w", a.name, err)
		}
		sp = b.spans.start("plan", root)
		plan, err := sess.Plan(ctx)
		b.spans.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: plan: %w", a.name, err)
		}
		none, err := sess.PlanWith(ctx, pathlog.None())
		if err != nil {
			return nil, fmt.Errorf("%s: uninstrumented plan: %w", a.name, err)
		}
		out[i] = deployed{prog: prog, plan: plan, none: none}
	}
	return out, nil
}

// round draws one input per shape and runs each through both sites. A
// report whose checks fail is counted in res.Failed; only an error the
// benchmark cannot continue past is returned.
func (b *bench) round(ctx context.Context, deps []deployed, res *result) (round, error) {
	var noneSum, planSum, reproduceSum float64
	var n float64
	for _, in := range b.w.inputs(b.rng) {
		res.Attempted++
		rep, err := b.report(ctx, deps[in.app], in)
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", b.w.name, in.shape, err)
			continue
		}
		b.reports = append(b.reports, rep)
		noneSum += rep.noneUS
		planSum += rep.planUS
		reproduceSum += rep.reproduceMS
		n++
	}
	if n == 0 {
		return round{}, errors.New("every report of the round failed")
	}
	return round{
		userUS:      noneSum / n,
		recordUS:    planSum / n,
		reproduceMS: reproduceSum / n,
		overhead:    planSum / noneSum,
		reproduceX:  reproduceSum * 1e3 / noneSum,
	}, nil
}

// report runs one input on the user site, uninstrumented and under the
// plan, then reproduces the instrumented run's bug report on the developer
// site. It returns an error when any output is wrong: instrumentation that
// changes what the program prints or how many steps it runs, a run that does
// not crash, a search that does not reproduce, or a reproducing input that
// does not crash where the user's run did.
func (b *bench) report(ctx context.Context, d deployed, in input) (report, error) {
	rep := report{shape: in.shape}
	root := b.spans.start("report", -1)
	defer b.spans.end(root)
	sess := pathlog.NewSession(d.prog, in.spec, pathlog.WithReplayBudget(replayMaxRuns, replayBudget))
	// Every report starts from a collected heap, so the garbage one report
	// leaves behind is not charged to the next one's timings.
	runtime.GC()

	none := make([]float64, recordPairs)
	plan := make([]float64, recordPairs)
	var rec *pathlog.Recording
	var noneOut, planOut []byte
	var planSteps int64
	for i := 0; i < recordPairs; i++ {
		for j := 0; j < 2; j++ {
			if (i+j)%2 == 0 {
				sp := b.spans.start("record.none", root)
				start := time.Now()
				_, stats, err := sess.RecordWith(ctx, d.none, in.user)
				none[i] = us(time.Since(start))
				b.spans.end(sp)
				if err != nil {
					return rep, fmt.Errorf("uninstrumented run: %w", err)
				}
				noneOut = stats.Stdout
				rep.steps = stats.Steps
			} else {
				sp := b.spans.start("record.plan", root)
				start := time.Now()
				r, stats, err := sess.RecordWith(ctx, d.plan, in.user)
				plan[i] = us(time.Since(start))
				b.spans.end(sp)
				if err != nil {
					return rep, fmt.Errorf("instrumented run: %w", err)
				}
				rec = r
				planOut = stats.Stdout
				planSteps = stats.Steps
				rep.instrExecs = stats.InstrumentedExecs
				rep.bits = stats.TraceBits
				rep.reportBytes = stats.TraceBytes + stats.SyslogBytes
			}
		}
	}
	// The logger runs beside the program, not in it: both builds must print
	// the same and execute the same number of steps, which ends the
	// uninstrumented run where the instrumented one crashed.
	if string(noneOut) != string(planOut) {
		return rep, fmt.Errorf("instrumentation changed the output: %q vs %q", noneOut, planOut)
	}
	if rep.steps != planSteps {
		return rep, fmt.Errorf("instrumentation changed the run: %d steps vs %d", rep.steps, planSteps)
	}
	if rec == nil {
		return rep, errors.New("the user-site run did not crash")
	}
	rep.noneUS = median(none)
	rep.planUS = median(plan)

	sp := b.spans.start("replay", root)
	start := time.Now()
	out, err := sess.Replay(ctx, rec)
	rep.reproduceMS = ms(time.Since(start))
	b.spans.end(sp)
	if err != nil {
		return rep, fmt.Errorf("replay: %w", err)
	}
	if !out.Reproduced {
		return rep, fmt.Errorf("not reproduced after %d runs", out.Runs)
	}
	rep.runs = out.Runs
	rep.solverCalls = out.SolverStats.Calls
	if out.Profile != nil {
		for _, c := range out.Profile.Branches {
			rep.solverTime += c.SolverTime
		}
	}

	sp = b.spans.start("verify", root)
	ok := sess.Verify(out.InputBytes, rec.Crash)
	b.spans.end(sp)
	if !ok {
		return rep, errors.New("the reproducing input does not crash at the recorded site")
	}
	return rep, nil
}

// endToEnd is what a user of the system sees: on the user site, how much
// slower the instrumented run is and how many bytes its report takes; on
// the developer site, how many program runs and how much time reproducing
// one report takes, the time counted in uninstrumented runs of the same
// program. Times enter only as ratios of times taken in the same round: the
// machines this benchmark runs on are shared, and their speed drifts by a
// fifth or more over minutes, moving every absolute time with it. The absolute
// times are per-layer metrics.
func (b *bench) endToEnd() map[string]metric {
	var bytes, runs float64
	for _, r := range b.reports {
		bytes += float64(r.reportBytes)
		runs += float64(r.runs)
	}
	n := float64(len(b.reports))
	return map[string]metric{
		"record_overhead":  {b.roundMedian(func(r round) float64 { return r.overhead }), "ratio"},
		"report_bytes":     {bytes / n, "bytes"},
		"reproduce_vs_run": {b.roundMedian(func(r round) float64 { return r.reproduceX }), "ratio"},
		"replay_runs":      {runs / n, "count"},
		"setup_s":          {median(b.setups), "s"},
	}
}

// roundMedian is the median over the timed rounds of one round figure.
func (b *bench) roundMedian(f func(round) float64) float64 {
	xs := make([]float64, len(b.rounds))
	for i, r := range b.rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// layerMetrics are the per-layer figures: durations from the spans around
// each layer call, counts from what the layers returned.
func (b *bench) layerMetrics() map[string]metric {
	var steps, execs, bits, runs, calls float64
	var solver time.Duration
	var repro []float64
	for _, r := range b.reports {
		steps += float64(r.steps)
		execs += float64(r.instrExecs)
		bits += float64(r.bits)
		runs += float64(r.runs)
		calls += float64(r.solverCalls)
		solver += r.solverTime
		repro = append(repro, r.reproduceMS)
	}
	n := float64(len(b.reports))
	noneNS := b.spans.total("record.none") / recordPairs
	planNS := b.spans.total("record.plan") / recordPairs
	replayNS := b.spans.total("replay")
	solverNS := float64(solver.Nanoseconds())
	return map[string]metric{
		"user_run_us":        {b.roundMedian(func(r round) float64 { return r.userUS }), "us"},
		"record_us":          {b.roundMedian(func(r round) float64 { return r.recordUS }), "us"},
		"reproduce_ms":       {b.roundMedian(func(r round) float64 { return r.reproduceMS }), "ms"},
		"compile_ms":         {b.spans.median("compile") / 1e6, "ms"},
		"analyze_ms":         {b.spans.median("analyze") / 1e6, "ms"},
		"plan_us":            {b.spans.median("plan") / 1e3, "us"},
		"vm_ns_per_step":     {per(noneNS, steps), "ns"},
		"logger_ns_per_exec": {per(planNS-noneNS, execs), "ns"},
		"logged_bits":        {per(bits, n), "bits"},
		"replay_us_per_run":  {per(replayNS/1e3, runs), "us"},
		"solver_calls":       {per(calls, n), "count"},
		"solver_us_per_call": {per(solverNS/1e3, calls), "us"},
		"solver_share":       {per(solverNS, replayNS), "ratio"},
		"verify_us":          {b.spans.median("verify") / 1e3, "us"},
		"reproduce_p90_ms":   {quantile(repro, 0.9), "ms"},
		"reports":            {n, "count"},
	}
}

// per divides, reading 0 when there is nothing to divide by (a plan that
// logs no branch, a search that never calls the solver).
func per(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics around q.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

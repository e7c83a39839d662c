// Command replay performs the developer-site half of the workflow: it loads
// a bug report produced by cmd/record and reproduces the crash, printing the
// reconstructed bug-triggering inputs. Ctrl-C cancels the search cleanly.
//
// The search plan comes from the recording envelope itself — the plan the
// user site actually recorded under, validated against the program (branch
// IDs and program hash must match, and the envelope's fingerprint stamp
// must agree with its plan). A stamped-only reference report (cmd/record
// -store) carries no plan at all: pass -store and the exact retained plan
// generation is resolved from the plan store by the report's fingerprint
// stamp — a stamp matching no retained plan is refused by name. To search
// under a different plan, pass an explicit -force-plan file; there is no
// silent way to disagree with the recording.
//
// -json prints one machine-readable result object to stdout instead of the
// human transcript (the harness and CI consume it; nothing scrapes text).
// Its "solver" object counts Unsat (proved) apart from GaveUp (budget
// spent, no proof; omitted when zero), and -profile-out writes the
// search's per-branch cost attribution for the refinement loop (cmd/tune).
//
// Usage:
//
//	replay -scenario paste -in bug.report
//	replay -scenario paste -in bug.report -store ./planstore
//	replay -scenario paste -in bug.report -force-plan other.plan.json
//	replay -scenario paste -in bug.report -json -profile-out search.profile.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/instrument"
	"pathlog/internal/replay"
	"pathlog/internal/solver"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "scenario name (must match the recording)")
		in       = flag.String("in", "bug.report", "bug report path")
		maxRuns  = flag.Int("max-runs", 4000, "replay run budget")
		budget   = flag.Duration("budget", 60*time.Second,
			"wall-clock budget (the paper's 1-hour cutoff, scaled)")
		noSyslog = flag.Bool("ignore-syslog", false,
			"discard the syscall log and use the symbolic models of §3.3")
		forcePlan = flag.String("force-plan", "",
			"replay under this plan file instead of the recording's own plan (explicit override)")
		jsonOut = flag.Bool("json", false,
			"print one machine-readable JSON result object to stdout instead of the transcript")
		profileOut = flag.String("profile-out", "",
			"write the search's per-branch cost attribution (refinement input) to this file")
		storeDir = flag.String("store", "",
			"resolve a stamped-only report's retained plan from this plan store")
	)
	flag.Parse()
	if *scenario == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s, err := apps.ScenarioByName(*scenario)
	if err != nil {
		fatal(err)
	}
	// Load structurally first: a stamped-only report (no embedded plan)
	// needs the store before any program validation can happen, and an
	// explicit -force-plan replaces the envelope's plan anyway. The plan
	// that ends up attached is always validated against the program below.
	rec, err2 := replay.LoadRecording(*in)
	if err2 != nil {
		fatal(err2)
	}
	if rec.Plan == nil && *forcePlan == "" && *storeDir == "" {
		fatal(fmt.Errorf("report %s carries no plan, only fingerprint stamp %s — pass -store <dir> so the retained plan can be resolved",
			*in, rec.Fingerprint))
	}
	if *forcePlan == "" && *storeDir == "" {
		// The envelope's plan is validated against the program up front:
		// wrong-program or tampered reports fail here, not as a nonsense
		// search.
		if err := rec.Validate(s.Prog); err != nil {
			fatal(err)
		}
	}
	sessOpts := []pathlog.Option{pathlog.WithReplayBudget(*maxRuns, *budget)}
	if *storeDir != "" {
		sessOpts = append(sessOpts, pathlog.WithPlanStore(*storeDir))
	}
	sess := pathlog.SessionOf(s, sessOpts...)
	if rec.Plan == nil && *forcePlan == "" {
		// A stamped-only reference report: the session resolves the retained
		// plan generation from the store by the stamp — refused by name when
		// the stamp matches nothing or the report's program hash disagrees
		// with the retained plan's. Replay re-validates the result as usual.
		resolved, err := sess.ResolveRecording(rec)
		if err != nil {
			fatal(err)
		}
		rec = resolved
		if !*jsonOut {
			fmt.Printf("resolved plan %s (generation %d, strategy %s) from store %s\n",
				rec.Fingerprint, rec.Plan.Generation, planLabel(rec.Plan), *storeDir)
		}
	}
	if *forcePlan != "" {
		plan, err := instrument.LoadPlan(*forcePlan)
		if err != nil {
			fatal(err)
		}
		if err := plan.ValidateForProgram(s.Prog); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("OVERRIDE: searching under plan %s (%s), not the recording's %s\n",
				*forcePlan, plan.Fingerprint(), rec.Fingerprint)
		}
		rec.Plan = plan
		rec.Fingerprint = plan.Fingerprint()
	}
	if !*jsonOut {
		fmt.Printf("report: %s (plan %s), %d instrumented locations, %d trace bits, crash at %s\n",
			planLabel(rec.Plan), rec.Fingerprint, rec.Plan.NumInstrumented(),
			rec.Trace.Len(), rec.Crash.Site())
	}
	if *noSyslog {
		rec.SysLog = nil
	}

	res, err := sess.Replay(ctx, rec)
	if err != nil {
		fatal(err)
	}
	if *profileOut != "" && res.Profile != nil {
		if err := res.Profile.Save(*profileOut); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("search profile written to %s\n", *profileOut)
		}
	}
	verified := res.Reproduced && sess.Verify(res.InputBytes, rec.Crash)
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(resultJSON(rec, res, verified)); err != nil {
			fatal(err)
		}
		if !res.Reproduced {
			os.Exit(1)
		}
		return
	}
	if !res.Reproduced {
		why := "budget exhausted — the paper's inf"
		if res.Cancelled {
			why = "cancelled"
		}
		fmt.Printf("NOT reproduced: %d runs, %s elapsed (%s)\n",
			res.Runs, res.Elapsed.Round(time.Millisecond), why)
		os.Exit(1)
	}
	fmt.Printf("reproduced in %d runs (%s); %d aborted paths; solver: %d calls (%d sat, %d unsat, %d gave up)\n",
		res.Runs, res.Elapsed.Round(time.Millisecond), res.Aborts,
		res.SolverStats.Calls, res.SolverStats.Sat, res.SolverStats.Unsat, res.SolverStats.GaveUp)
	fmt.Printf("symbolic branches on the bug path: %d locations logged (%d execs), %d not logged (%d execs)\n",
		res.SymLoggedLocs, res.SymLoggedExecs, res.SymNotLoggedLocs, res.SymNotLoggedExecs)

	if verified {
		fmt.Println("verified: the reconstructed input crashes at the recorded site")
	} else {
		fmt.Println("WARNING: reconstructed input failed verification")
	}
	fmt.Println("reconstructed inputs (not the user's bytes — an equivalent activating set):")
	for stream, bytes := range res.InputBytes {
		fmt.Printf("  %-14s %q\n", stream, printable(bytes))
	}
}

// replayJSON is the -json result envelope: everything the transcript says,
// as one stable object.
type replayJSON struct {
	Reproduced      bool              `json:"reproduced"`
	Verified        bool              `json:"verified"`
	TimedOut        bool              `json:"timed_out"`
	Cancelled       bool              `json:"cancelled"`
	Runs            int               `json:"runs"`
	Aborts          int               `json:"aborts"`
	WallMS          int64             `json:"wall_ms"`
	PendingPeak     int               `json:"pending_peak"`
	PlanStrategy    string            `json:"plan_strategy"`
	PlanFingerprint string            `json:"plan_fingerprint"`
	PlanGeneration  int               `json:"plan_generation"`
	Instrumented    int               `json:"instrumented_locations"`
	TraceBits       int64             `json:"trace_bits"`
	SymLogged       [2]int64          `json:"sym_logged_locs_execs"`
	SymNotLogged    [2]int64          `json:"sym_not_logged_locs_execs"`
	Solver          solver.Stats      `json:"solver"`
	Profile         *profileSummary   `json:"profile,omitempty"`
	Inputs          map[string]string `json:"inputs,omitempty"`
}

// profileSummary condenses the search profile for the JSON envelope; the
// full attribution goes to -profile-out.
type profileSummary struct {
	ChargedBranches int            `json:"charged_branches"`
	TopBlowup       []blowupBranch `json:"top_blowup,omitempty"`
	// Disagreements counts log bits across all branches that contradicted
	// a run's own direction (case-2b/3b) — the bits that constrained this
	// search; Demotable lists instrumented branches with consumed bits and
	// zero disagreements, the corpus loop's shrink candidates.
	Disagreements int64             `json:"disagreements"`
	Demotable     []demotableBranch `json:"demotable,omitempty"`
}

type blowupBranch struct {
	Branch      int   `json:"branch"`
	Forks       int64 `json:"forks"`
	AbortedRuns int64 `json:"aborted_runs"`
	SolverCalls int64 `json:"solver_calls"`
}

// demotableBranch is one instrumented branch whose bits the search proved
// redundant: every consumed bit agreed with the run's own direction.
type demotableBranch struct {
	Branch      int   `json:"branch"`
	LoggedExecs int64 `json:"logged_execs"`
}

func resultJSON(rec *replay.Recording, res *pathlog.ReplayResult, verified bool) replayJSON {
	out := replayJSON{
		Reproduced:      res.Reproduced,
		Verified:        verified,
		TimedOut:        res.TimedOut,
		Cancelled:       res.Cancelled,
		Runs:            res.Runs,
		Aborts:          res.Aborts,
		WallMS:          res.Elapsed.Milliseconds(),
		PendingPeak:     res.PendingPeak,
		PlanStrategy:    planLabel(rec.Plan),
		PlanFingerprint: rec.Fingerprint,
		PlanGeneration:  rec.Plan.Generation,
		Instrumented:    rec.Plan.NumInstrumented(),
		TraceBits:       rec.Trace.Len(),
		SymLogged:       [2]int64{int64(res.SymLoggedLocs), res.SymLoggedExecs},
		SymNotLogged:    [2]int64{int64(res.SymNotLoggedLocs), res.SymNotLoggedExecs},
		Solver:          res.SolverStats,
	}
	if res.Reproduced {
		out.Inputs = make(map[string]string, len(res.InputBytes))
		for stream, bytes := range res.InputBytes {
			out.Inputs[stream] = printable(bytes)
		}
	}
	if p := res.Profile; p != nil {
		sum := &profileSummary{ChargedBranches: len(p.Branches)}
		for _, id := range p.TopBlowup(5, rec.Plan.Instrumented) {
			bc := p.Branch(id)
			sum.TopBlowup = append(sum.TopBlowup, blowupBranch{
				Branch:      int(id),
				Forks:       bc.Forks,
				AbortedRuns: bc.AbortedRuns,
				SolverCalls: bc.SolverCalls,
			})
		}
		for _, bc := range p.Branches {
			sum.Disagreements += bc.Disagreements
		}
		for _, id := range p.Demotable(rec.Plan.Instrumented) {
			sum.Demotable = append(sum.Demotable, demotableBranch{
				Branch:      int(id),
				LoggedExecs: p.Branch(id).LoggedExecs,
			})
		}
		out.Profile = sum
	}
	return out
}

// planLabel prefers the strategy provenance, falling back to the method tag
// of version-1 envelopes.
func planLabel(p *pathlog.Plan) string {
	if p.Strategy != "" {
		return p.Strategy
	}
	return p.Method.String()
}

func printable(b []byte) string {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	out := make([]byte, end)
	for i := 0; i < end; i++ {
		c := b[i]
		if c == '\r' || c == '\n' || c == '\t' || (c >= 32 && c < 127) {
			out[i] = c
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replay:", err)
	os.Exit(1)
}

package ir_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/replay"
	"pathlog/internal/static"
)

// searchPin is what one serial replay search must reproduce bit for bit:
// the run counts, the solver's outcome counters, the reproducing input and
// the per-branch search attribution.
type searchPin struct {
	Runs, Aborts, PendingPeak  int
	Calls, Sat, Unsat, GaveUp  int
	InputDigest, ProfileDigest string
}

// pinnedSearches is the serial search under the dynamic+static plan with a
// 2000-run budget, per scenario and syscall-log setting. Any change to the
// search order, the pending-list discipline or the profile attribution
// moves an entry; a refactor of the search loop must leave every one as is.
var pinnedSearches = map[string]searchPin{
	"mkdir/syslog":          {Runs: 7, Aborts: 6, PendingPeak: 4, Calls: 6, Sat: 6, Unsat: 0, GaveUp: 0, InputDigest: "2fe16066048346f4", ProfileDigest: "27adb3ef241ec8bf"},
	"mkdir/nosyslog":        {Runs: 7, Aborts: 6, PendingPeak: 4, Calls: 6, Sat: 6, Unsat: 0, GaveUp: 0, InputDigest: "2fe16066048346f4", ProfileDigest: "27adb3ef241ec8bf"},
	"mknod/syslog":          {Runs: 3, Aborts: 2, PendingPeak: 1, Calls: 2, Sat: 2, Unsat: 0, GaveUp: 0, InputDigest: "f429f7981b03a500", ProfileDigest: "b73b097ef75dbd1d"},
	"mknod/nosyslog":        {Runs: 3, Aborts: 2, PendingPeak: 1, Calls: 2, Sat: 2, Unsat: 0, GaveUp: 0, InputDigest: "f429f7981b03a500", ProfileDigest: "b73b097ef75dbd1d"},
	"mkfifo/syslog":         {Runs: 3, Aborts: 2, PendingPeak: 1, Calls: 2, Sat: 2, Unsat: 0, GaveUp: 0, InputDigest: "f551f1f13de8f69f", ProfileDigest: "ee145010f8330823"},
	"mkfifo/nosyslog":       {Runs: 3, Aborts: 2, PendingPeak: 1, Calls: 2, Sat: 2, Unsat: 0, GaveUp: 0, InputDigest: "f551f1f13de8f69f", ProfileDigest: "ee145010f8330823"},
	"paste/syslog":          {Runs: 12, Aborts: 11, PendingPeak: 1, Calls: 11, Sat: 11, Unsat: 0, GaveUp: 0, InputDigest: "e36f2a1a933cc24f", ProfileDigest: "61e1bf7f75184514"},
	"paste/nosyslog":        {Runs: 12, Aborts: 11, PendingPeak: 1, Calls: 11, Sat: 11, Unsat: 0, GaveUp: 0, InputDigest: "e36f2a1a933cc24f", ProfileDigest: "9c29180ebdff1db2"},
	"userver-exp1/syslog":   {Runs: 30, Aborts: 29, PendingPeak: 1, Calls: 29, Sat: 29, Unsat: 0, GaveUp: 0, InputDigest: "169fbd363a4dc26d", ProfileDigest: "bbbe1e7fd0530bf0"},
	"userver-exp1/nosyslog": {Runs: 30, Aborts: 29, PendingPeak: 2727, Calls: 29, Sat: 29, Unsat: 0, GaveUp: 0, InputDigest: "169fbd363a4dc26d", ProfileDigest: "629df6353510a942"},
	"userver-exp2/syslog":   {Runs: 79, Aborts: 78, PendingPeak: 749, Calls: 78, Sat: 78, Unsat: 0, GaveUp: 0, InputDigest: "462b307df1fe2784", ProfileDigest: "cabfca26dc550b37"},
	"userver-exp2/nosyslog": {Runs: 79, Aborts: 78, PendingPeak: 10871, Calls: 78, Sat: 78, Unsat: 0, GaveUp: 0, InputDigest: "462b307df1fe2784", ProfileDigest: "3a96d63b8bcc354e"},
	"userver-exp3/syslog":   {Runs: 88, Aborts: 87, PendingPeak: 255, Calls: 87, Sat: 87, Unsat: 0, GaveUp: 0, InputDigest: "4b114b9614484632", ProfileDigest: "edec1ac3e27b4ea5"},
	"userver-exp3/nosyslog": {Runs: 88, Aborts: 87, PendingPeak: 11681, Calls: 87, Sat: 87, Unsat: 0, GaveUp: 0, InputDigest: "4b114b9614484632", ProfileDigest: "fbe46c52b2c9beca"},
	"userver-exp4/syslog":   {Runs: 98, Aborts: 97, PendingPeak: 1, Calls: 97, Sat: 97, Unsat: 0, GaveUp: 0, InputDigest: "f8293b4ea571a825", ProfileDigest: "212413bd5deb1922"},
	"userver-exp4/nosyslog": {Runs: 98, Aborts: 97, PendingPeak: 11604, Calls: 97, Sat: 97, Unsat: 0, GaveUp: 0, InputDigest: "f8293b4ea571a825", ProfileDigest: "3028efe728d733d0"},
	"diff-exp1/syslog":      {Runs: 12, Aborts: 11, PendingPeak: 1, Calls: 11, Sat: 11, Unsat: 0, GaveUp: 0, InputDigest: "3057d8f0f1ba97e8", ProfileDigest: "a61adbcbb44b3fe7"},
	"diff-exp1/nosyslog":    {Runs: 12, Aborts: 11, PendingPeak: 331, Calls: 11, Sat: 11, Unsat: 0, GaveUp: 0, InputDigest: "3057d8f0f1ba97e8", ProfileDigest: "0da9b185d40a5a2d"},
}

// pinnedProfile is the part of a search profile's JSON the pin covers:
// every attribution field, decoded from the saved form so a key the profile
// gains or drops elsewhere does not move the digest.
type pinnedProfile struct {
	ProgHash        string                      `json:"prog_hash"`
	PlanFingerprint string                      `json:"plan_fingerprint"`
	Generation      int                         `json:"generation"`
	Runs            int                         `json:"runs"`
	Aborts          int                         `json:"aborts"`
	Reproduced      bool                        `json:"reproduced"`
	Solver          json.RawMessage             `json:"solver"`
	Branches        map[string]pinnedBranchCost `json:"branches"`
}

type pinnedBranchCost struct {
	Forks         int64 `json:"forks"`
	AbortedRuns   int64 `json:"aborted_runs"`
	SolverCalls   int64 `json:"solver_calls"`
	LoggedExecs   int64 `json:"logged_execs"`
	Disagreements int64 `json:"disagreements"`
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func profileDigest(t *testing.T, p *instrument.SearchProfile) string {
	t.Helper()
	for _, bc := range p.Branches {
		bc.SolverTime = 0
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var pp pinnedProfile
	if err := json.Unmarshal(raw, &pp); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(pp)
	if err != nil {
		t.Fatal(err)
	}
	return digest(out)
}

func inputDigest(in map[string][]byte) string {
	names := make([]string, 0, len(in))
	for name := range in {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(in[name])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestSerialSearchPinned pins the serial replay search against a committed
// table (pinnedSearches): one search per scenario, with the recorded syscall
// log and with it stripped (the model-mode search of §3.3).
func TestSerialSearchPinned(t *testing.T) {
	names := []string{"mkdir", "mknod", "mkfifo", "paste",
		"userver-exp1", "userver-exp2", "userver-exp3", "userver-exp4", "diff-exp1"}
	ctx := context.Background()
	for _, name := range names {
		scn, err := apps.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		an := apps.AnalysisScenarioFor(name, scn)
		dyn := an.AnalyzeDynamicContext(ctx, concolic.Options{MaxRuns: 6})
		st := scn.AnalyzeStatic(static.Options{LibAsSymbolic: true})
		plan := instrument.BuildPlan(scn.Prog, instrument.MethodDynamicStatic,
			instrument.Inputs{Dynamic: dyn, Static: st}, true)
		rec, _, err := scn.RecordContext(ctx, plan)
		if err != nil || rec == nil {
			t.Fatalf("%s: record: rec=%v err=%v", name, rec, err)
		}
		for _, mode := range []string{"syslog", "nosyslog"} {
			key := name + "/" + mode
			t.Run(key, func(t *testing.T) {
				r := rec
				if mode == "nosyslog" {
					r = core.StripSyslog(rec)
				}
				res := scn.ReplayContext(ctx, r, replay.Options{MaxRuns: 2000})
				got := searchPin{
					Runs: res.Runs, Aborts: res.Aborts, PendingPeak: res.PendingPeak,
					Calls: res.SolverStats.Calls, Sat: res.SolverStats.Sat,
					Unsat: res.SolverStats.Unsat, GaveUp: res.SolverStats.GaveUp,
					InputDigest:   inputDigest(res.InputBytes),
					ProfileDigest: profileDigest(t, res.Profile),
				}
				if want := pinnedSearches[key]; got != want {
					t.Errorf("serial search moved:\n got  %#v\n want %#v", got, want)
				}
			})
		}
	}
}

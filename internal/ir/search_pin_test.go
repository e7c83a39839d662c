package ir_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
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
	"mkdir/syslog":          {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "2fe16066048346f4", ProfileDigest: "91b5e85504285cf6"},
	"mkdir/nosyslog":        {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "2fe16066048346f4", ProfileDigest: "91b5e85504285cf6"},
	"mknod/syslog":          {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "f429f7981b03a500", ProfileDigest: "f75de411169bc61e"},
	"mknod/nosyslog":        {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "f429f7981b03a500", ProfileDigest: "f75de411169bc61e"},
	"mkfifo/syslog":         {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "ed26867e12bb187a", ProfileDigest: "c126d0ccbaaafe91"},
	"mkfifo/nosyslog":       {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "ed26867e12bb187a", ProfileDigest: "c126d0ccbaaafe91"},
	"paste/syslog":          {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "72c4a703bdc1c274", ProfileDigest: "a3e61c978ac8e8d0"},
	"paste/nosyslog":        {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "72c4a703bdc1c274", ProfileDigest: "c3451d94dcb5dd98"},
	"userver-exp1/syslog":   {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "169fbd363a4dc26d", ProfileDigest: "1d1871be72bfcd4e"},
	"userver-exp1/nosyslog": {Runs: 2, Aborts: 1, PendingPeak: 96, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "169fbd363a4dc26d", ProfileDigest: "666716e2c6ef7749"},
	"userver-exp2/syslog":   {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "462b307df1fe2784", ProfileDigest: "1940c8bb204282c6"},
	"userver-exp2/nosyslog": {Runs: 2, Aborts: 1, PendingPeak: 123, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "462b307df1fe2784", ProfileDigest: "949d54b459fc8840"},
	"userver-exp3/syslog":   {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "4b114b9614484632", ProfileDigest: "479171644c49a2a5"},
	"userver-exp3/nosyslog": {Runs: 2, Aborts: 1, PendingPeak: 105, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "4b114b9614484632", ProfileDigest: "55bbcfba48c407ce"},
	"userver-exp4/syslog":   {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "f8293b4ea571a825", ProfileDigest: "fc7c20f69de73b3f"},
	"userver-exp4/nosyslog": {Runs: 2, Aborts: 1, PendingPeak: 103, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "f8293b4ea571a825", ProfileDigest: "9576c9b22f9932af"},
	"diff-exp1/syslog":      {Runs: 2, Aborts: 1, PendingPeak: 2, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "3057d8f0f1ba97e8", ProfileDigest: "b9a110f77ec9106e"},
	"diff-exp1/nosyslog":    {Runs: 2, Aborts: 1, PendingPeak: 22, Calls: 1, Sat: 1, Unsat: 0, GaveUp: 0, InputDigest: "3057d8f0f1ba97e8", ProfileDigest: "281d7950f78ee655"},
}

// analysisPin is what one pre-deployment concolic analysis must reproduce
// bit for bit: its run count, the digest of its branch labels, the solver's
// outcome counters and the fingerprint of the plan each §2.3 method builds
// from it with syscall logging on (PlanFingerprint is dynamic+static's).
type analysisPin struct {
	Runs                       int
	LabelsDigest               string
	Calls, Sat, Unsat, GaveUp  int
	PlanFingerprint            string
	None, Dynamic, Static, All string
}

// pinnedAnalyses is the dynamic analysis of each pinned scenario's analysis
// scenario under its set-up run budget (analysisRuns). The uServer
// experiments share one analysis scenario, so their entries agree.
var pinnedAnalyses = map[string]analysisPin{
	"mkdir": {Runs: 300, LabelsDigest: "404ee6e561d9f38b", Calls: 5529, Sat: 2645, Unsat: 2884, GaveUp: 0, PlanFingerprint: "eb4764c5461ae18f03f4192ca7d9afe5",
		None: "34b387182a67b9f7a6f2d51a32d3f603", Dynamic: "4a4f0e60b91ac787e7136211a208ef2f", Static: "c8bf1d614630ab5851000d839b365b00", All: "0dfb472a1eff8a78dfd1161118a697f7"},
	"mknod": {Runs: 13, LabelsDigest: "0c2ed52d0f6e7a05", Calls: 48, Sat: 31, Unsat: 17, GaveUp: 0, PlanFingerprint: "12893e85826d34fb37fe4e84d42e8b04",
		None: "dde279bad568c03e27bd5d1dfa27f22d", Dynamic: "bfa6c277c76d2deb97356f9587f199f1", Static: "15dcf8d0a7447632d8632f98e5905031", All: "15dcf8d0a7447632d8632f98e5905031"},
	"mkfifo": {Runs: 300, LabelsDigest: "4ad3d57be8884df9", Calls: 4423, Sat: 2286, Unsat: 2137, GaveUp: 0, PlanFingerprint: "6fee572f2fceb1a93cf5aefd623a580c",
		None: "4b70c69ebebc12c140ba268a90d35b82", Dynamic: "9005a1ee130a3701dc74e2314341268c", Static: "8a8001b5ad43a0615a44492cb2807547", All: "4fa3e53bf379698a49c158f22346e5dc"},
	"paste": {Runs: 300, LabelsDigest: "68ddd7df3fea92e2", Calls: 8769, Sat: 5685, Unsat: 3084, GaveUp: 0, PlanFingerprint: "e1e0fc090d8c480e216e62706e71804e",
		None: "5b1fc7a1d8de6a3f274e1ab67103af5a", Dynamic: "a56bc2b1314c72f04aafbbce44bc4716", Static: "4f4479c6796b808c62a0aac31667321c", All: "e13ebef97bdbb9a13dbf2453562b887f"},
	"userver-exp1": {Runs: 60, LabelsDigest: "73df18825681c9af", Calls: 2994, Sat: 1193, Unsat: 1787, GaveUp: 14, PlanFingerprint: "08b626428bd1ab103213106196df683d",
		None: "b9dfc0b89a4afc38ac505f89eec54c34", Dynamic: "48b3676d27f75ba40fc9ea917a2875a3", Static: "f63083668935143ca2839fc2dbfdcd73", All: "9e6df750ea9421be0ad9d2498a03c863"},
	"userver-exp2": {Runs: 60, LabelsDigest: "73df18825681c9af", Calls: 2994, Sat: 1193, Unsat: 1787, GaveUp: 14, PlanFingerprint: "08b626428bd1ab103213106196df683d",
		None: "b9dfc0b89a4afc38ac505f89eec54c34", Dynamic: "48b3676d27f75ba40fc9ea917a2875a3", Static: "f63083668935143ca2839fc2dbfdcd73", All: "9e6df750ea9421be0ad9d2498a03c863"},
	"userver-exp3": {Runs: 60, LabelsDigest: "73df18825681c9af", Calls: 2994, Sat: 1193, Unsat: 1787, GaveUp: 14, PlanFingerprint: "08b626428bd1ab103213106196df683d",
		None: "b9dfc0b89a4afc38ac505f89eec54c34", Dynamic: "48b3676d27f75ba40fc9ea917a2875a3", Static: "f63083668935143ca2839fc2dbfdcd73", All: "9e6df750ea9421be0ad9d2498a03c863"},
	"userver-exp4": {Runs: 60, LabelsDigest: "73df18825681c9af", Calls: 2994, Sat: 1193, Unsat: 1787, GaveUp: 14, PlanFingerprint: "08b626428bd1ab103213106196df683d",
		None: "b9dfc0b89a4afc38ac505f89eec54c34", Dynamic: "48b3676d27f75ba40fc9ea917a2875a3", Static: "f63083668935143ca2839fc2dbfdcd73", All: "9e6df750ea9421be0ad9d2498a03c863"},
	"diff-exp1": {Runs: 40, LabelsDigest: "4724a4f116dfd370", Calls: 2326, Sat: 1639, Unsat: 687, GaveUp: 0, PlanFingerprint: "349e6ee2331b2909b6f7e1432a26bd1b",
		None: "1d272d569a83bab5f9f8f7813c3f12aa", Dynamic: "b2df1a68128003e2ec5d6bfd40725abf", Static: "79652786116af0ed35c4be32b0b62654", All: "704b6ba04a006ac2e4e9a7d7823196a5"},
}

// analysisRuns is the concolic run budget the end-to-end benchmark's set-up
// gives each program: 300 runs per coreutil, 60 for the uServer, 40 for diff.
func analysisRuns(name string) int {
	switch {
	case strings.HasPrefix(name, "userver"):
		return 60
	case strings.HasPrefix(name, "diff"):
		return 40
	default:
		return 300
	}
}

func labelsDigest(labels map[lang.BranchID]concolic.Label) string {
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d:%s\n", id, labels[lang.BranchID(id)])
	}
	return digest([]byte(b.String()))
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
// log and with it stripped (the model-mode search of §3.3). It pins each
// scenario's dynamic analysis at its set-up budget too (pinnedAnalyses).
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
		st := static.Analyze(scn.Prog, static.Options{LibAsSymbolic: true})
		t.Run(name+"/analysis", func(t *testing.T) {
			dyn := explore(ctx, an, analysisRuns(name), nil)
			fp := func(m instrument.Method) string {
				return planOf(t, scn, instrument.StrategyForMethod(m), instrument.Inputs{Dynamic: dyn, Static: st}).Fingerprint()
			}
			got := analysisPin{
				Runs: dyn.Runs, LabelsDigest: labelsDigest(dyn.Labels),
				Calls: dyn.SolverStats.Calls, Sat: dyn.SolverStats.Sat,
				Unsat: dyn.SolverStats.Unsat, GaveUp: dyn.SolverStats.GaveUp,
				PlanFingerprint: fp(instrument.MethodDynamicStatic),
				None:            fp(instrument.MethodNone),
				Dynamic:         fp(instrument.MethodDynamic),
				Static:          fp(instrument.MethodStatic),
				All:             fp(instrument.MethodAll),
			}
			if want := pinnedAnalyses[name]; got != want {
				t.Errorf("dynamic analysis moved:\n got  %#v\n want %#v", got, want)
			}
		})
		dyn := explore(ctx, an, 6, nil)
		plan := planOf(t, scn, instrument.StrategyForMethod(instrument.MethodDynamicStatic),
			instrument.Inputs{Dynamic: dyn, Static: st})
		rec, _, err := core.Record(ctx, nil, scn.Prog, scn.Spec, scn.UserBytes, plan)
		if err != nil || rec == nil {
			t.Fatalf("%s: record: rec=%v err=%v", name, rec, err)
		}
		for _, mode := range []string{"syslog", "nosyslog"} {
			key := name + "/" + mode
			t.Run(key, func(t *testing.T) {
				r := rec
				if mode == "nosyslog" {
					r = pathlog.StripSyscallLog(rec)
				}
				res := reproduce(ctx, scn, r, replay.Options{MaxRuns: 2000})
				if !res.Reproduced || !verify(scn, res, r, nil) {
					t.Errorf("reproduced %v, but the input does not verify", res.Reproduced)
				}
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

package instrument

import (
	"pathlog/internal/concolic"
	"pathlog/internal/lang"
)

// The cost model prices the record side of the paper's tradeoff before
// anything is deployed. It is fed by the per-branch hit counts the
// concolic analysis gathers anyway (Report.ExecCount / SymExecCount) and
// gives each plan one number: the expected logged bits per user-site run.
// One bit per execution of an instrumented branch is exactly what drives
// both the CPU overhead (the 17-instruction logging sequence of §5.1) and
// the storage overhead, so bits/run is the natural overhead unit.
//
// Debug time is not modelled: the replay runs a plan costs are measured by
// recording and replaying its workload (Session.Frontier). A linear
// fan-out estimate cannot show where the search's knee lies, so the model
// only ranks branches for Budgeted, by symbolic executions per logged bit.
//
// Branches the analysis never visited are priced with empirical priors:
// an unvisited instrumented branch is charged one expected execution per
// run (instrumentation is never free), and an unvisited branch is assumed
// symbolic at the observed symbolic fraction of visited branches (the best
// available guess at how likely it is to turn symbolic at the user site).

// CostEstimate carries a plan's modeled record overhead. It persists with
// the plan so shipped plans keep their pricing.
type CostEstimate struct {
	// OverheadBitsPerRun is the expected logged bits per user-site run.
	OverheadBitsPerRun float64 `json:"overhead_bits_per_run"`
	// Modeled is false when no concolic profile was available and the
	// estimate fell back to structural priors only.
	Modeled bool `json:"modeled"`
}

// minExecRate is the floor on an instrumented branch's expected executions
// per run: even a branch the analysis never saw executing costs at least
// one expected bit once instrumented.
const minExecRate = 1.0

// defaultSymPrior is the symbolic prior used when the analysis visited
// nothing (no profile at all).
const defaultSymPrior = 0.5

// CostModel holds the per-branch rates derived from one concolic profile.
// Build it once per analysis via NewCostModel and price any number of
// plans with Estimate.
type CostModel struct {
	ids      []lang.BranchID
	execRate map[lang.BranchID]float64
	symRate  map[lang.BranchID]float64
	visited  map[lang.BranchID]bool
	// priorSym is the empirical probability that an unvisited branch turns
	// out symbolic: the symbolic fraction among visited locations.
	priorSym float64
	modeled  bool
}

// NewCostModel derives per-branch rates from a concolic report. A nil
// report (or one with zero runs) yields a structural model that prices
// every branch with priors only.
func NewCostModel(prog *lang.Program, dyn *concolic.Report) *CostModel {
	m := &CostModel{
		ids:      make([]lang.BranchID, 0, len(prog.Branches)),
		execRate: make(map[lang.BranchID]float64),
		symRate:  make(map[lang.BranchID]float64),
		visited:  make(map[lang.BranchID]bool),
		priorSym: defaultSymPrior,
	}
	for _, b := range prog.Branches {
		m.ids = append(m.ids, b.ID)
	}
	if dyn == nil || dyn.Runs == 0 {
		return m
	}
	m.modeled = true
	runs := float64(dyn.Runs)
	nVisited, nSym := 0, 0
	for _, id := range m.ids {
		if dyn.Labels[id] == concolic.Unvisited {
			continue
		}
		m.visited[id] = true
		m.execRate[id] = float64(dyn.ExecCount[id]) / runs
		m.symRate[id] = float64(dyn.SymExecCount[id]) / runs
		nVisited++
		if dyn.Labels[id] == concolic.Symbolic {
			nSym++
		}
	}
	if nVisited > 0 {
		m.priorSym = float64(nSym) / float64(nVisited)
		// Never price the coverage gamble at exactly zero: an analysis that
		// saw no symbolic branches still cannot promise the user site won't.
		if m.priorSym < 0.02 {
			m.priorSym = 0.02
		}
	}
	return m
}

// branchOverhead is the expected logged bits per run if id is instrumented.
func (m *CostModel) branchOverhead(id lang.BranchID) float64 {
	if r := m.execRate[id]; r > minExecRate {
		return r
	}
	return minExecRate
}

// symExecRate is the expected symbolic executions per run of id: observed
// for visited branches (0 for branches observed concrete), the symbolic
// prior for unvisited ones.
func (m *CostModel) symExecRate(id lang.BranchID) float64 {
	if m.visited[id] {
		return m.symRate[id]
	}
	return m.priorSym
}

// Estimate prices one plan: the expected logged bits per run of its
// instrumented set.
func (m *CostModel) Estimate(p *Plan) CostEstimate {
	est := CostEstimate{Modeled: m.modeled}
	for _, id := range m.ids {
		if p.Instrumented[id] {
			est.OverheadBitsPerRun += m.branchOverhead(id)
		}
	}
	return est
}

// EstimatedOverhead returns the plan's expected logged bits per user-site
// run under the cost model it was built with (0 for an unpriced plan).
func (p *Plan) EstimatedOverhead() float64 { return p.Cost.OverheadBitsPerRun }

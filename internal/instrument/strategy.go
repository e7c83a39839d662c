package instrument

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pathlog/internal/concolic"
	"pathlog/internal/lang"
)

// The Planner API makes the paper's instrumentation decision a first-class,
// composable value instead of a closed enum. A Strategy turns analysis
// results into a Plan; combinators build new strategies out of existing
// ones. It is the only planner: each §2.3 Method is a name for one
// composition (StrategyForMethod), whose branch sets plan_test.go checks
// literally and whose per-scenario fingerprints internal/ir pins:
//
//	MethodNone          == None()
//	MethodDynamic       == Dynamic()
//	MethodStatic        == Static()
//	MethodDynamicStatic == Union(Dynamic(), StaticResidue())
//	MethodAll           == All()
//
// Compositions beyond the paper's four become available for free:
//
//	Budgeted(All(), 64)   // the 64 branches with most symbolic executions per logged bit
//
// Strategy names are identifiers: the Session caches plans by name, and
// frontier tables label points with them, so a custom Strategy must return
// a name that uniquely describes its decision.

// PlanContext carries everything a Strategy may consult: the program, the
// analysis results, the session's syscall-logging flag, and the cost model
// built from the dynamic analysis. No field changes after NewPlanContext,
// so the same PlanContext always prices and ranks alike, and strategies may
// plan against it concurrently.
type PlanContext struct {
	Prog        *lang.Program
	In          Inputs
	LogSyscalls bool

	cost *CostModel
}

// NewPlanContext binds a program and its analysis results for planning and
// builds the cost model from the dynamic analysis profile.
func NewPlanContext(prog *lang.Program, in Inputs, logSyscalls bool) *PlanContext {
	return &PlanContext{Prog: prog, In: in, LogSyscalls: logSyscalls, cost: NewCostModel(prog, in.Dynamic)}
}

// NewPlan assembles and prices a finished plan from an explicit
// instrumented-branch set — the one constructor every strategy (built-in or
// user-written) funnels through, so every plan carries its provenance
// label, program hash and cost estimate.
func (pc *PlanContext) NewPlan(name string, instrumented map[lang.BranchID]bool) *Plan {
	if instrumented == nil {
		instrumented = make(map[lang.BranchID]bool)
	}
	p := &Plan{
		Strategy:     name,
		Instrumented: instrumented,
		LogSyscalls:  pc.LogSyscalls,
		ProgHash:     pc.Prog.Hash(),
	}
	p.Cost = pc.cost.Estimate(p)
	return p
}

// Strategy decides which branch locations to instrument. Implementations
// must be deterministic: the same PlanContext must always yield the same
// plan (fingerprints, plan caching and recordings shipped between sites
// all depend on it).
type Strategy interface {
	// Name uniquely identifies the strategy's decision, e.g.
	// "union(dynamic,static-residue)". Combinators compose names.
	Name() string
	// Plan derives the instrumentation plan. The context bounds any work;
	// strategies needing an analysis the PlanContext lacks return an error.
	Plan(ctx context.Context, pc *PlanContext) (*Plan, error)
}

// strategyFunc adapts a name and a set-builder to the Strategy interface.
type strategyFunc struct {
	name  string
	build func(ctx context.Context, pc *PlanContext) (map[lang.BranchID]bool, error)
}

// Name implements Strategy.
func (s *strategyFunc) Name() string { return s.name }

// Plan implements Strategy: it builds the branch set and prices it.
func (s *strategyFunc) Plan(ctx context.Context, pc *PlanContext) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	set, err := s.build(ctx, pc)
	if err != nil {
		return nil, err
	}
	return pc.NewPlan(s.name, set), nil
}

// noneStrategy is the uninstrumented baseline. It is its own type because
// it overrides the session's syscall-logging flag: the baseline never logs
// anything (MethodNone).
type noneStrategy struct{}

// Name implements Strategy.
func (noneStrategy) Name() string { return "none" }

// Plan implements Strategy: an empty branch set with syscall logging off.
func (noneStrategy) Plan(ctx context.Context, pc *PlanContext) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := pc.NewPlan("none", nil)
	p.LogSyscalls = false
	return p, nil
}

// None returns the uninstrumented-baseline strategy: no branches, no
// syscall logging.
func None() Strategy { return noneStrategy{} }

// Dynamic returns the strategy instrumenting every branch the concolic
// analysis labeled symbolic (§2.3 "dynamic"). It errors without a dynamic
// report.
func Dynamic() Strategy {
	return &strategyFunc{name: "dynamic", build: func(ctx context.Context, pc *PlanContext) (map[lang.BranchID]bool, error) {
		if pc.In.Dynamic == nil {
			return nil, fmt.Errorf("instrument: strategy dynamic needs a dynamic analysis report")
		}
		set := make(map[lang.BranchID]bool)
		for id, l := range pc.In.Dynamic.Labels {
			if l == concolic.Symbolic {
				set[id] = true
			}
		}
		return set, nil
	}}
}

// Static returns the strategy instrumenting every branch the static
// analysis labeled symbolic (§2.3 "static"). It errors without a static
// report.
func Static() Strategy {
	return &strategyFunc{name: "static", build: func(ctx context.Context, pc *PlanContext) (map[lang.BranchID]bool, error) {
		if pc.In.Static == nil {
			return nil, fmt.Errorf("instrument: strategy static needs a static analysis report")
		}
		set := make(map[lang.BranchID]bool)
		for id, v := range pc.In.Static.SymbolicBranches {
			if v {
				set[id] = true
			}
		}
		return set, nil
	}}
}

// StaticResidue returns the strategy instrumenting the statically-symbolic
// branches the dynamic analysis never visited — static's contribution to
// the combined method, where dynamic evidence always wins on visited
// branches (§2.3). Union(Dynamic(), StaticResidue()) is
// MethodDynamicStatic.
func StaticResidue() Strategy {
	return &strategyFunc{name: "static-residue", build: func(ctx context.Context, pc *PlanContext) (map[lang.BranchID]bool, error) {
		if pc.In.Dynamic == nil || pc.In.Static == nil {
			return nil, fmt.Errorf("instrument: strategy static-residue needs both analysis reports")
		}
		set := make(map[lang.BranchID]bool)
		for _, b := range pc.Prog.Branches {
			if pc.In.Dynamic.Labels[b.ID] == concolic.Unvisited && pc.In.Static.SymbolicBranches[b.ID] {
				set[b.ID] = true
			}
		}
		return set, nil
	}}
}

// All returns the strategy instrumenting every branch location (§2.3 "all
// branches").
func All() Strategy {
	return &strategyFunc{name: "all", build: func(ctx context.Context, pc *PlanContext) (map[lang.BranchID]bool, error) {
		set := make(map[lang.BranchID]bool, len(pc.Prog.Branches))
		for _, b := range pc.Prog.Branches {
			set[b.ID] = true
		}
		return set, nil
	}}
}

// composeName renders a combinator name from its parts.
func composeName(op string, parts ...string) string {
	return op + "(" + strings.Join(parts, ",") + ")"
}

// innerSets plans every inner strategy and returns their instrumented sets.
func innerSets(ctx context.Context, pc *PlanContext, inner []Strategy) ([]map[lang.BranchID]bool, error) {
	sets := make([]map[lang.BranchID]bool, len(inner))
	for i, s := range inner {
		p, err := s.Plan(ctx, pc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name(), err)
		}
		sets[i] = p.Instrumented
	}
	return sets, nil
}

func strategyNames(ss []Strategy) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name()
	}
	return names
}

// Union returns the strategy instrumenting every branch any of the inner
// strategies instruments.
func Union(inner ...Strategy) Strategy {
	return &strategyFunc{
		name: composeName("union", strategyNames(inner)...),
		build: func(ctx context.Context, pc *PlanContext) (map[lang.BranchID]bool, error) {
			sets, err := innerSets(ctx, pc, inner)
			if err != nil {
				return nil, err
			}
			out := make(map[lang.BranchID]bool)
			for _, set := range sets {
				for id, v := range set {
					if v {
						out[id] = true
					}
				}
			}
			return out, nil
		},
	}
}

// Budgeted returns the strategy that keeps at most k branches of the inner
// strategy's set — the k with the most symbolic executions per logged bit
// under the cost model: each symbolic execution a logged bit pins is one
// alternative the replay search need not explore, and each bit is paid at
// every user-site run. This sweeps intermediate points onto the
// overhead/debug-time curve between the paper's fixed methods. Ties break
// toward more symbolic executions per run, then lower branch ID, so the
// selection is deterministic.
func Budgeted(inner Strategy, k int) Strategy {
	return &strategyFunc{
		name: fmt.Sprintf("budgeted(%s,%d)", inner.Name(), k),
		build: func(ctx context.Context, pc *PlanContext) (map[lang.BranchID]bool, error) {
			p, err := inner.Plan(ctx, pc)
			if err != nil {
				return nil, err
			}
			ids := p.IDs()
			if k < 0 {
				k = 0
			}
			if len(ids) <= k {
				return p.Instrumented, nil
			}
			model := pc.cost
			type ranked struct {
				id     lang.BranchID
				sym    float64 // symbolic executions per run
				perBit float64 // symbolic executions per logged bit
			}
			rs := make([]ranked, len(ids))
			for i, id := range ids {
				sym := model.symExecRate(id)
				rs[i] = ranked{id: id, sym: sym, perBit: sym / model.branchOverhead(id)}
			}
			sort.Slice(rs, func(i, j int) bool {
				if rs[i].perBit != rs[j].perBit {
					return rs[i].perBit > rs[j].perBit
				}
				if rs[i].sym != rs[j].sym {
					return rs[i].sym > rs[j].sym
				}
				return rs[i].id < rs[j].id
			})
			out := make(map[lang.BranchID]bool, k)
			for _, r := range rs[:k] {
				out[r.id] = true
			}
			return out, nil
		},
	}
}

// StrategyForMethod returns the composition a Method names (§2.3) — the
// composition itself, so a plan built through a method name is the plan
// the composition builds, under the composition's strategy label. Unknown
// methods map to None().
func StrategyForMethod(m Method) Strategy {
	switch m {
	case MethodDynamic:
		return Dynamic()
	case MethodStatic:
		return Static()
	case MethodDynamicStatic:
		return Union(Dynamic(), StaticResidue())
	case MethodAll:
		return All()
	default:
		return None()
	}
}

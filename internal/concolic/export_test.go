package concolic

import (
	"slices"
	"sync"

	"pathlog/internal/lang"
	"pathlog/internal/sym"
	"pathlog/internal/vm"
)

// SliceCheckingEngine wraps engine so that every exploration run's path
// condition is kept, and returns with it a check to call once Explore has
// returned. The check slices each kept path condition at every negation
// point, by one slicer reused across the runs and by the map-based
// reference, and returns the number of slices compared and the first
// mismatch, if any. It runs after the exploration, not on the workers as
// runs end: a run's variables are numbered only when it commits, and the
// slicer indexes by variable ID. A run the exploration dropped uncommitted
// has unnumbered variables and is skipped.
func SliceCheckingEngine(engine vm.Factory) (vm.Factory, func() (int, error)) {
	var (
		mu    sync.Mutex
		paths [][]pathCond
	)
	factory := func(prog *lang.Program, opts vm.Options) vm.Machine {
		return &sliceChecker{Machine: engine(prog, opts), tr: opts.Sink.(*tracer), keep: func(conds []pathCond) {
			mu.Lock()
			paths = append(paths, conds)
			mu.Unlock()
		}}
	}
	check := func() (int, error) {
		var sl slicer
		n := 0
		for _, conds := range paths {
			if numbered(conds) {
				at := negationPoints(len(conds))
				if err := sl.checkSlices(conds, at); err != nil {
					return n, err
				}
				n += len(at)
			}
		}
		return n, nil
	}
	return factory, check
}

type sliceChecker struct {
	vm.Machine
	tr   *tracer
	keep func([]pathCond)
}

func (m *sliceChecker) Run() (vm.Result, error) {
	res, err := m.Machine.Run()
	m.keep(slices.Clone(m.tr.conds))
	return res, err
}

// numbered reports whether every variable of conds has an ID.
func numbered(conds []pathCond) bool {
	var ids []int
	for _, pc := range conds {
		ids = sym.AppendVarIDs(pc.c.E, ids[:0])
		if slices.ContainsFunc(ids, func(id int) bool { return id < 0 }) {
			return false
		}
	}
	return true
}

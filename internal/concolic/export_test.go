package concolic

import (
	"pathlog/internal/lang"
	"pathlog/internal/vm"
)

// SliceCheckingEngine wraps engine so that after every exploration run,
// before the run's children are generated, the run's path condition is
// sliced at each negation point by one slicer reused across the runs and
// by the map-based reference. check receives the number of slices compared
// and the first mismatch, if any.
func SliceCheckingEngine(engine vm.Factory, check func(slices int, err error)) vm.Factory {
	var sl slicer
	return func(prog *lang.Program, opts vm.Options) vm.Machine {
		return &sliceChecker{Machine: engine(prog, opts), tr: opts.Sink.(*tracer), sl: &sl, check: check}
	}
}

type sliceChecker struct {
	vm.Machine
	tr    *tracer
	sl    *slicer
	check func(int, error)
}

func (m *sliceChecker) Run() (vm.Result, error) {
	res, err := m.Machine.Run()
	at := negationPoints(len(m.tr.conds))
	m.check(len(at), m.sl.checkSlices(m.tr.conds, at))
	return res, err
}

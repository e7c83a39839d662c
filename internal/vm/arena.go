package vm

import "pathlog/internal/freelist"

// ObjectArena bump-allocates run-lifetime Objects from recycled slabs. The
// replay search executes the program hundreds of times per reproduction, and
// every run allocates the full set of globals, frames and local arrays; with
// the general-purpose heap that allocation (and the garbage-collection work
// it induces) dominates the run cost. An arena amortizes it: slabs are
// reused across runs via a free list, so a steady-state run allocates
// nothing, also on the first run after a garbage collection.
//
// Arena objects are semantically identical to NewObject ones — zeroed cells
// and a unique, allocation-ordered ID (pointer comparisons across distinct
// objects order by ID, so allocation order is what matters, not the ID
// values themselves). The caller owning the arena must guarantee that no
// Object allocated from it is reachable after Release; in this repository
// nothing retains Objects past a run — sinks keep sym.Expr constraints, the
// kernel exchanges plain bytes, and results carry only scalars.
type ObjectArena struct {
	cellSlabs [][]Value
	cellUsed  []int // high-water mark per slab, for release-time zeroing
	objSlabs  [][]Object
	ci, cn    int // current cell slab and its used count
	oi, on    int // current object slab and its used count
}

const (
	arenaCellSlab = 16384 // Values per cell slab
	arenaObjSlab  = 512   // Objects per header slab
)

// idleArenas holds released arenas, one per run that can execute at once.
var idleArenas freelist.List[*ObjectArena]

// GetArena returns an idle arena, or a new one; its storage is zeroed.
func GetArena() *ObjectArena {
	if a, ok := idleArenas.Get(nil); ok {
		return a
	}
	return new(ObjectArena)
}

// Release zeroes the arena's used storage (dropping every Name, Cells and
// Sym reference it pinned) and returns it to the free list. No Object
// allocated from the arena may be used after Release.
func (a *ObjectArena) Release() {
	for i := 0; i <= a.ci && i < len(a.cellSlabs); i++ {
		clear(a.cellSlabs[i][:a.cellUsed[i]])
		a.cellUsed[i] = 0
	}
	for i := 0; i <= a.oi && i < len(a.objSlabs); i++ {
		used := arenaObjSlab
		if i == a.oi {
			used = a.on
		}
		clear(a.objSlabs[i][:used])
	}
	a.ci, a.cn, a.oi, a.on = 0, 0, 0, 0
	idleArenas.Put(a)
}

// NewObject allocates a zeroed n-cell object with run lifetime.
func (a *ObjectArena) NewObject(name string, n int64) *Object {
	if a.oi == len(a.objSlabs) {
		a.objSlabs = append(a.objSlabs, make([]Object, arenaObjSlab))
	}
	o := &a.objSlabs[a.oi][a.on]
	if a.on++; a.on == arenaObjSlab {
		a.oi++
		a.on = 0
	}
	o.ID = objectIDs.Add(1)
	o.Name = name
	o.Cells = a.cells(int(n))
	return o
}

// Scratch carves a zeroed value buffer of capacity n and zero length for
// run-local scratch (the bytecode VM's operand stack); like any arena
// storage it is reclaimed on Release. Appending past n migrates to the heap,
// which is correct and merely loses the recycling for that one run.
func (a *ObjectArena) Scratch(n int) []Value { return a.cells(n)[:0] }

// cells carves a zeroed value slice off the slab sequence. Requests larger
// than the standard slab get a dedicated one, so arbitrarily big arrays
// still recycle.
func (a *ObjectArena) cells(n int) []Value {
	for {
		if a.ci == len(a.cellSlabs) {
			size := arenaCellSlab
			if n > size {
				size = n
			}
			a.cellSlabs = append(a.cellSlabs, make([]Value, size))
			a.cellUsed = append(a.cellUsed, 0)
		}
		if slab := a.cellSlabs[a.ci]; a.cn+n <= len(slab) {
			out := slab[a.cn : a.cn+n : a.cn+n]
			a.cn += n
			if a.cn > a.cellUsed[a.ci] {
				a.cellUsed[a.ci] = a.cn
			}
			return out
		}
		// Slabs are recycled in whatever sizes earlier runs needed; skip any
		// too full (or too small) for this request.
		a.ci++
		a.cn = 0
	}
}

package vm

import (
	"runtime"
	"testing"
)

// TestArenaRecyclesAcrossGC checks that an arena released before two
// garbage collections is the one GetArena returns after them, its storage
// zeroed, and that at most GOMAXPROCS idle arenas are kept.
func TestArenaRecyclesAcrossGC(t *testing.T) {
	a := GetArena()
	o := a.NewObject("x", 4)
	o.Cells[3] = Value{I: 7}
	a.Release()
	runtime.GC()
	runtime.GC()
	b := GetArena()
	if b != a {
		t.Fatal("GetArena after two collections did not return the released arena")
	}
	if o := b.NewObject("y", 4); o.Cells[3] != (Value{}) || o.Name != "y" {
		t.Errorf("recycled arena handed out a dirty object: %+v", o)
	}
	b.Release()

	n := runtime.GOMAXPROCS(0)
	held := make([]*ObjectArena, n+3)
	for i := range held {
		held[i] = GetArena()
		held[i].NewObject("z", 1)
	}
	for _, a := range held {
		a.Release()
	}
	if l := idleArenas.Len(); l > n {
		t.Errorf("%d idle arenas kept, GOMAXPROCS is %d", l, n)
	}
}

package ir_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathlog/internal/apps"
	"pathlog/internal/ir"
	"pathlog/internal/lang"
)

// TestCompileOnePerLinkedProgram checks that the bytecode belongs to the
// linked program: concurrent first callers on one program share one
// *ir.Program compiled from that program, and a separately linked copy of
// the same source gets its own, whose listing matches below the header.
func TestCompileOnePerLinkedProgram(t *testing.T) {
	for _, c := range []struct {
		name string
		link func() *lang.Program
	}{
		{"userver", apps.UServerProgram},
		{"diff", apps.DiffProgram},
		{"paste", func() *lang.Program {
			s, err := apps.CoreutilScenario("paste", 12)
			if err != nil {
				t.Fatal(err)
			}
			return s.Prog
		}},
	} {
		first, second := c.link(), c.link()
		a, err := ir.Compile(first)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}

		const callers = 8
		got := make([]*ir.Program, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				p, err := ir.Compile(second)
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
				}
				got[i] = p
			}()
		}
		close(start)
		wg.Wait()
		b := got[0]
		for i, p := range got {
			if p != b {
				t.Fatalf("%s: caller %d got a second *ir.Program", c.name, i)
			}
		}
		if a.Src != first || b.Src != second {
			t.Fatalf("%s: a compiled program's source is another linked program", c.name)
		}

		da, db := a.Disasm(), b.Disasm()
		ha, bodyA, _ := strings.Cut(da, "\n")
		hb, bodyB, _ := strings.Cut(db, "\n")
		if want := "; program " + first.Hash(); ha != want || hb != want {
			t.Errorf("%s: headers %q and %q, want %q", c.name, ha, hb, want)
		}
		if bodyA != bodyB {
			t.Errorf("%s: two links of one source disassemble differently", c.name)
		}
	}
}

// TestCompiledProgramIsCollected checks that compiling a program does not
// keep it reachable: once the caller drops it, the program and its bytecode
// are collected.
func TestCompiledProgramIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		prog := parse(t, disasmSrc)
		if _, err := ir.Compile(prog); err != nil {
			t.Fatal(err)
		}
		runtime.AddCleanup(prog, func(done chan struct{}) { close(done) }, collected)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 100 && time.Now().Before(deadline); i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped program stayed reachable after compiling it")
}

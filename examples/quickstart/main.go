// Quickstart: the paper's Listing 1 end to end, through the Session API.
//
// A program computes a Fibonacci number for one of two options. Only the two
// option branches depend on input, so the selective instrumentation methods
// log exactly two bits per run — and those two bits are enough to reproduce
// a crash without ever shipping the user's input.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"pathlog"
)

// The program under test: Listing 1 with a planted crash on option 'c' so
// there is a bug to reproduce.
const source = `
int fibonacci(int n) {
	int a = 0;
	int b = 1;
	int i;
	for (i = 0; i < n; i++) {
		int t = a + b;
		a = b;
		b = t;
	}
	return a;
}

int main() {
	char opt[8];
	getarg(0, opt, 8);
	int result = 0;
	if (opt[0] == 'a') {
		result = fibonacci(20);
	} else if (opt[0] == 'b') {
		result = fibonacci(40);
	} else if (opt[0] == 'c') {
		crash(13); /* the bug a user will hit */
	}
	print_str("Result: ");
	print_int(result);
	print_char('\n');
	return 0;
}
`

func main() {
	ctx := context.Background()
	prog, err := pathlog.Compile(pathlog.Unit{Name: "fib.mc", Source: source})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d branch locations\n", len(prog.Branches))

	// The session: one argument of up to 4 bytes. The neutral seed is what
	// analysis and replay see; the user's actual input is 'c'.
	sess := pathlog.NewSession(prog,
		&pathlog.Spec{Args: []pathlog.Stream{pathlog.ArgStream(0, "x", 4)}},
		pathlog.WithName("quickstart"),
		pathlog.WithUserBytes(map[string][]byte{"arg0": []byte("c")}),
		pathlog.WithSyscallLog(),
		pathlog.WithDynamicBudget(50, 0),
		pathlog.WithReplayBudget(500, 0),
	)

	// Pre-deployment analysis: which branches depend on input?
	in, err := sess.Analyze(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic analysis: %d runs, %d symbolic / %d concrete branch locations\n",
		in.Dynamic.Runs,
		in.Dynamic.CountLabel(2), // concolic.Symbolic
		in.Dynamic.CountLabel(1)) // concolic.Concrete
	fmt.Printf("static analysis:  %d symbolic branch locations\n",
		in.Static.CountSymbolic())

	// The paper's titular balance as an API: sweep strategies, record and
	// replay the workload under each plan, and print the Pareto frontier
	// of the measurements (bits logged, replay runs).
	points, err := sess.Frontier(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noverhead/debug-time frontier:")
	for _, pt := range points {
		fmt.Printf("  %-28s %2d locations  %4.0f bits/run  %4.0f replay runs\n",
			pt.Strategy, pt.Plan.NumInstrumented(), pt.Overhead, pt.ReplayRuns)
	}
	fmt.Println()

	for _, method := range pathlog.Methods {
		plan, err := sess.PlanWith(ctx, pathlog.StrategyForMethod(method))
		if err != nil {
			log.Fatal(err)
		}

		// User site: the instrumented run crashes; the bug report holds the
		// branch bits and the crash site — no input bytes.
		rec, stats, err := sess.RecordWith(ctx, plan, nil)
		if err != nil {
			log.Fatal(err)
		}
		if rec == nil {
			log.Fatalf("%v: user run did not crash", method)
		}

		// Developer site: reproduce. Replay would refuse a recording whose
		// plan or program did not match this session.
		res, err := sess.Replay(ctx, rec)
		if err != nil {
			log.Fatal(err)
		}
		status := "failed"
		if res.Reproduced {
			status = fmt.Sprintf("reproduced in %d runs; input arg0=%q",
				res.Runs, trimNul(res.InputBytes["arg0"]))
		}
		fmt.Printf("%-15s  %2d branches instrumented, %2d bits logged -> %s\n",
			method, plan.NumInstrumented(), stats.TraceBits, status)

		if res.Reproduced && !sess.Verify(res.InputBytes, rec.Crash) {
			log.Fatalf("%v: reproduced input does not verify", method)
		}
	}
	fmt.Println("every reproduced input was re-run and verified to hit the same crash site")
}

func trimNul(b []byte) []byte {
	for i, c := range b {
		if c == 0 {
			return b[:i]
		}
	}
	return b
}

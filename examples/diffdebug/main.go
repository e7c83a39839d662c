// Diffdebug: reproduce a diff execution from its branch log (§5.4).
//
// diff is the paper's stress case: nearly every branch depends on the two
// input files, so the dynamic method (with its low analysis coverage) leaves
// many symbolic branches unlogged and replay blows up — while dynamic+static
// replays quickly. This example shows that contrast directly.
//
// Run with: go run ./examples/diffdebug
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pathlog"
	"pathlog/internal/apps"
)

func main() {
	ctx := context.Background()
	scn, err := apps.DiffExperimentScenario(1)
	if err != nil {
		log.Fatal(err)
	}
	pair := apps.DiffExperiments[0]
	fmt.Printf("program: diff + ulib, %d branch locations\n", len(scn.Prog.Branches))
	fmt.Printf("user compares (private):\n  a.txt: %q\n  b.txt: %q\n", pair[0], pair[1])

	// Low-coverage dynamic analysis — §5.4 reports only 20% coverage for
	// diff within the budget — plus the full static analysis.
	sess := pathlog.SessionOf(scn,
		pathlog.WithAnalysisSpec(apps.AnalysisSpec(scn).Spec),
		pathlog.WithSyscallLog(),
		pathlog.WithDynamicBudget(30, 0),
		pathlog.WithReplayBudget(2500, 15*time.Second),
	)
	in, err := sess.Analyze(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analysis: dynamic labels %d symbolic; static labels %d symbolic (of %d)\n\n",
		in.Dynamic.CountLabel(2), in.Static.CountSymbolic(), len(scn.Prog.Branches))

	for _, method := range pathlog.Methods {
		plan, err := sess.PlanFor(ctx, method)
		if err != nil {
			log.Fatal(err)
		}
		rec, _, err := sess.RecordWith(ctx, plan, nil)
		if err != nil {
			log.Fatal(err)
		}
		if rec == nil {
			log.Fatalf("%v: no crash recorded", method)
		}
		res, err := sess.Replay(ctx, rec)
		if err != nil {
			log.Fatal(err)
		}
		if res.Reproduced {
			fmt.Printf("%-15s reproduced in %4d runs (%s); %d/%d symbolic locations logged/unlogged\n",
				method, res.Runs, res.Elapsed.Round(time.Millisecond),
				res.SymLoggedLocs, res.SymNotLoggedLocs)
			fmt.Printf("%-15s  reconstructed a.txt: %q\n", "",
				printable(res.InputBytes["file:a.txt"]))
			fmt.Printf("%-15s  reconstructed b.txt: %q\n", "",
				printable(res.InputBytes["file:b.txt"]))
		} else {
			fmt.Printf("%-15s inf — budget exhausted after %d runs (the paper's Table 6 result for dynamic)\n",
				method, res.Runs)
		}
	}
}

func printable(b []byte) string {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	out := make([]byte, end)
	for i := 0; i < end; i++ {
		c := b[i]
		if c == '\n' || (c >= 32 && c < 127) {
			out[i] = c
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}

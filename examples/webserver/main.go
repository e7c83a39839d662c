// Webserver: record and reproduce a crash of the uServer (§5.3).
//
// A select()-driven HTTP server handles scripted client connections, then
// receives a crash signal (the paper's SIGSEGV). The instrumented build logs
// one bit per instrumented branch; the replay engine reconstructs HTTP
// request bytes that drive the server down the recorded path to the crash —
// without the bug report ever containing the user's requests. Frontier
// measures both sides of that trade for each method.
//
// Run with: go run ./examples/webserver
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
	// uServer experiment 2: a GET with query string and Host header.
	scn, err := apps.UServerScenario(2, 72)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program: uServer + ulib, %d branch locations\n", len(scn.Prog.Branches))
	fmt.Printf("user request (stays on the user's machine): %q\n",
		apps.UServerExperiments[1][0])

	// Pre-deployment analysis, seeded by the developer test suite.
	sess := pathlog.SessionOf(scn,
		pathlog.WithAnalysisSpec(apps.UServerAnalysisSpec()),
		pathlog.WithSyscallLog(),
		pathlog.WithDynamicBudget(40, 0),
		pathlog.WithStaticOptions(pathlog.StaticOptions{LibAsSymbolic: true}),
		pathlog.WithReplayBudget(3000, 30*time.Second),
	)
	in, err := sess.Analyze(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analysis: dynamic %d runs / %d symbolic; static %d symbolic\n",
		in.Dynamic.Runs, in.Dynamic.CountLabel(2), in.Static.CountSymbolic())

	// Sweep the paper's four methods: each plan records the crash and
	// replays the report, and the Pareto frontier of the measurements
	// remains — every point below is the best measured balance at its
	// overhead level.
	points, err := sess.Frontier(ctx,
		pathlog.Dynamic(),
		pathlog.Union(pathlog.Dynamic(), pathlog.StaticResidue()),
		pathlog.Static(),
		pathlog.All(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frontier: %d Pareto-optimal strategies\n", len(points))
	for _, pt := range points {
		fmt.Printf("  %-30s instruments %3d locations: logged %4.0f bits, reproduced in %.0f replay runs\n",
			pt.Strategy, pt.Plan.NumInstrumented(), pt.Overhead, pt.ReplayRuns)
	}
}

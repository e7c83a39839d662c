// Webserver: record and reproduce a crash of the uServer (§5.3).
//
// A select()-driven HTTP server handles scripted client connections, then
// receives a crash signal (the paper's SIGSEGV). The instrumented build logs
// one bit per instrumented branch; the replay engine reconstructs HTTP
// request bytes that drive the server down the recorded path to the crash —
// without the bug report ever containing the user's requests.
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
		pathlog.WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
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

	// Sweep the strategy space and walk the overhead/debug-time Pareto
	// frontier: every point below is the best available balance at its
	// overhead level. Each point's plan records and replays the crash.
	points, err := sess.Frontier(ctx,
		pathlog.None(),
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
		if !pt.Plan.Instruments() {
			fmt.Printf("\n%-30s baseline: nothing logged, nothing reproducible\n", pt.Strategy)
			continue
		}
		rec, stats, err := sess.RecordWith(ctx, pt.Plan, nil)
		if err != nil {
			log.Fatal(err)
		}
		if rec == nil {
			log.Fatalf("%v: the server did not crash", pt.Strategy)
		}
		res, err := sess.Replay(ctx, rec)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "FAILED (budget exhausted — the paper's inf)"
		if res.Reproduced {
			req := res.InputBytes["conn0"]
			verdict = fmt.Sprintf("reproduced in %d runs (%.0fms); reconstructed request %q",
				res.Runs, res.Elapsed.Seconds()*1000, printable(req))
		}
		fmt.Printf("\n%-30s instruments %3d locations (~%.0f est bits/run, ~%.0f est replay runs)\n"+
			"  logged %4d bits (%d B + %d B syscalls)\n  -> %s\n",
			pt.Strategy, pt.Plan.NumInstrumented(), pt.Overhead, pt.ReplayRuns,
			stats.TraceBits, stats.TraceBytes, stats.SyslogBytes, verdict)
		if res.Reproduced {
			if !sess.Verify(res.InputBytes, rec.Crash) {
				log.Fatalf("%v: reconstructed input does not verify", pt.Strategy)
			}
			fmt.Println("  verified: re-running the reconstructed input hits the same crash site")
		}
	}
}

// printable trims trailing NULs and replaces control bytes for display.
func printable(b []byte) string {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	out := make([]byte, end)
	for i := 0; i < end; i++ {
		c := b[i]
		if c == '\r' || c == '\n' || (c >= 32 && c < 127) {
			out[i] = c
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}

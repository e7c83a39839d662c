package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/corpus"
	"pathlog/internal/static"
)

// Corpus demonstrates both directions of the corpus-driven balance on the
// uServer: a deployed system receives CorpusNoisyReports duplicate reports
// of a quick, noisy crash (input scenario 1 — a minimal GET whose replay
// is short) plus one older report of the heavy blowup crash (input
// scenario 3 — cookies and percent-escapes, which a low-coverage dynamic
// plan misses hardest and whose replay exhausts the budget).
//
//   - Latest-crash refinement — the pre-corpus loop — refines against the
//     newest report only. That report is noisy: its replay meets the
//     target immediately, the loop converges at generation 0, and the
//     blowup report keeps missing the budget. The corpus-mean replay
//     misses the target.
//   - Corpus-weighted refinement (Session.CorpusBalance) replays the whole
//     weighted population over CorpusShards shards, merges the attribution
//     through the verifying merge point, and promotes the corpus-wide
//     blowup branches — reaching the corpus-mean target the latest-crash
//     loop missed. It then shrinks: branches whose bits never once
//     disagreed across the population are demoted, the demoted plan is
//     re-deployed and re-measured, and the accepted generation carries
//     strictly fewer measured overhead bits with every report still
//     reproducing.
//
// Reports travel as stamped-only v3 reference envelopes through a plan
// store, exactly as a store-backed deployment ships them; the shards
// replay in-process.
func (c Config) Corpus(ctx context.Context) (*Table, error) {
	root := c.CorpusDir
	if root == "" {
		tmp, err := os.MkdirTemp("", "pathlog-corpus-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	reportDir := filepath.Join(root, "reports")
	storeDir := filepath.Join(root, "store")
	if err := os.MkdirAll(reportDir, 0o755); err != nil {
		return nil, err
	}

	blowup, err := apps.UServerScenario(3, 72)
	if err != nil {
		return nil, err
	}
	noisy, err := apps.UServerScenario(1, 72)
	if err != nil {
		return nil, err
	}
	sess := pathlog.SessionOf(blowup,
		pathlog.WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
		pathlog.WithDynamicBudget(c.UServerAnalysisRunsLC, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
		pathlog.WithSyscallLog(),
		pathlog.WithStrategy(pathlog.Dynamic()),
		pathlog.WithReplayBudget(c.ReplayMaxRuns, c.ReplayBudget),
		pathlog.WithPlanStore(storeDir),
	)
	plan, err := sess.Plan(ctx)
	if err != nil {
		return nil, err
	}

	// The report stream: one old blowup report, then a burst of identical
	// noisy reports (deduped by signature at ingest). mtimes drive the
	// recency weights; the blowup report is a day older than the burst.
	now := time.Now().Truncate(time.Second)
	record := func(user map[string][]byte, name string, mtime time.Time) (string, error) {
		rec, _, err := sess.RecordWith(ctx, plan, user)
		if err != nil {
			return "", err
		}
		if rec == nil {
			return "", fmt.Errorf("harness: user run %s did not crash", name)
		}
		path := filepath.Join(reportDir, name)
		if err := rec.SaveRef(path); err != nil {
			return "", err
		}
		return path, os.Chtimes(path, mtime, mtime)
	}
	blowupPath, err := record(blowup.UserBytes, "blowup.report", now.Add(-24*time.Hour))
	if err != nil {
		return nil, err
	}
	nNoisy := c.CorpusNoisyReports
	if nNoisy < 1 {
		nNoisy = 5
	}
	var noisyPath string
	for i := 0; i < nNoisy; i++ {
		noisyPath, err = record(noisy.UserBytes, fmt.Sprintf("noisy-%02d.report", i),
			now.Add(-time.Duration(nNoisy-i)*time.Minute))
		if err != nil {
			return nil, err
		}
	}

	crp, err := pathlog.IngestCorpus(reportDir, pathlog.CorpusIngestOptions{})
	if err != nil {
		return nil, err
	}
	if err := crp.AttachInput(blowupPath, blowup.UserBytes); err != nil {
		return nil, err
	}
	if err := crp.AttachInput(noisyPath, noisy.UserBytes); err != nil {
		return nil, err
	}
	if err := crp.SaveManifest(filepath.Join(reportDir, corpus.ManifestName)); err != nil {
		return nil, err
	}

	target := c.CorpusTargetRuns
	if target <= 0 {
		target = c.AdaptiveTargetRuns
	}

	t := &Table{
		ID:    "Corpus",
		Title: "corpus-weighted refinement vs latest-crash on the uServer: N noisy reports + 1 heavy blowup report",
		Header: []string{"loop", "gen", "strategy", "locs", "mean bits", "mean runs",
			"max runs", "repro", "promoted", "demoted"},
	}

	// Latest-crash arm: the pre-corpus loop, driven by the newest report's
	// input. The noisy replay meets the target immediately, so the loop
	// converges at generation 0 and never touches the blowup branches.
	lcTraj, err := sess.AutoBalance(ctx, noisy.UserBytes, pathlog.BalanceOptions{
		TargetReplayRuns: target,
		MaxGenerations:   c.AdaptiveMaxGenerations,
	})
	if err != nil {
		return nil, err
	}
	lcFinal := lcTraj.Final()
	t.AddRow("latest-crash", fmt.Sprintf("%d", lcFinal.Generation),
		shorten(lcFinal.Plan.Strategy, 34),
		fmt.Sprintf("%d", lcFinal.Plan.NumInstrumented()),
		"-", fmt.Sprintf("%d", lcFinal.ReplayRuns), "-",
		fmt.Sprintf("%v", lcFinal.Reproduced), "-", "-")

	// Corpus arm: sharded weighted replay, promote until the population
	// meets the target, then demote with measured acceptance.
	shards := c.CorpusShards
	if shards < 1 {
		shards = 1
	}
	tr, err := sess.CorpusBalance(ctx, crp, pathlog.BalanceOptions{
		TargetReplayRuns: target,
		MaxGenerations:   c.AdaptiveMaxGenerations,
		Shards:           shards,
		OnCorpusGeneration: func(pt pathlog.CorpusPoint) {
			t.AddRow("corpus", fmt.Sprintf("%d", pt.Generation),
				shorten(pt.Plan.Strategy, 34),
				fmt.Sprintf("%d", pt.Plan.NumInstrumented()),
				fmt.Sprintf("%.1f", pt.MeanOverheadBits),
				fmt.Sprintf("%.1f", pt.MeanReplayRuns),
				fmt.Sprintf("%d", pt.MaxReplayRuns),
				fmt.Sprintf("%d/%d", pt.Reproduced, pt.Members),
				fmt.Sprintf("%d", len(pt.Promoted)),
				fmt.Sprintf("%d", len(pt.Demoted)))
		},
	})
	if err != nil {
		return nil, err
	}

	// Both directions of the claim, as grep-able notes.
	gen0 := tr.Points[0]
	final := tr.Final()
	lcMeanMiss := gen0.Reproduced < gen0.Members || gen0.MeanReplayRuns > float64(target)
	status := "corpus balance: NOT converged"
	if tr.Converged {
		status = "corpus balance: converged"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s: %s", status, tr.Reason),
		fmt.Sprintf("corpus: %d reports in %d members (noisy x%d deduped, weights %s), identity %s, shards: %d in-process",
			nNoisy+1, len(crp.Reports), nNoisy, weightList(crp), tr.CorpusIdentity, shards))
	if lcTraj.Converged && lcFinal.Generation == 0 && lcMeanMiss && tr.Converged {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"direction 1 (promote): latest-crash converges at generation 0 (noisy replay %d runs <= %d) leaving the corpus mean at %.1f runs with %d/%d reproduced — the corpus loop reaches mean %.1f <= %d",
			lcFinal.ReplayRuns, target, gen0.MeanReplayRuns, gen0.Reproduced, gen0.Members,
			final.MeanReplayRuns, target))
	} else {
		t.Notes = append(t.Notes, "direction 1 (promote): NOT demonstrated on this run")
	}
	demoted := demotedTotal(tr)
	preDemotion := preDemotionBits(tr)
	if demoted > 0 && final.MeanOverheadBits < preDemotion && final.Reproduced == final.Members {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"direction 2 (demote): %d branches demoted, measured mean bits %.1f strictly below pre-demotion %.1f, %d/%d reports reproduce",
			demoted, final.MeanOverheadBits, preDemotion, final.Reproduced, final.Members))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"direction 2 (demote): NOT demonstrated (demoted %d, refused %q)", demoted, tr.DemotionRefused))
	}

	if c.CorpusTrajectoryOut != "" {
		if err := tr.Save(c.CorpusTrajectoryOut); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "corpus trajectory JSON written to "+c.CorpusTrajectoryOut)
	}
	if c.CorpusProfileOut != "" && final.Outcome != nil && final.Outcome.Profile != nil {
		if err := final.Outcome.Profile.Save(c.CorpusProfileOut); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "merged corpus profile written to "+c.CorpusProfileOut)
	}
	return t, nil
}

// weightList renders the member weights compactly.
func weightList(c *pathlog.Corpus) string {
	out := ""
	for i, rep := range c.Reports {
		if i > 0 {
			out += "/"
		}
		out += fmt.Sprintf("%.2f", rep.Weight)
	}
	return out
}

// demotedTotal counts branches demoted across the trajectory.
func demotedTotal(tr *pathlog.CorpusTrajectory) int {
	n := 0
	for _, pt := range tr.Points {
		n += len(pt.Demoted)
	}
	return n
}

// preDemotionBits returns the measured mean bits of the last generation
// before the first demotion (the shrink's baseline); the final point's
// bits when nothing was demoted.
func preDemotionBits(tr *pathlog.CorpusTrajectory) float64 {
	for i, pt := range tr.Points {
		if len(pt.Demoted) > 0 && i > 0 {
			return tr.Points[i-1].MeanOverheadBits
		}
	}
	return tr.Final().MeanOverheadBits
}

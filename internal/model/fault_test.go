// The fault-model sweep lives in package model_test, like the conformance
// sweep, so it can consume internal/conformance and internal/adversary
// without entangling the checker with the algorithm table.
package model_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/model"
)

// TestProveFaultCells is the fault-model acceptance run, the CI model-check
// job's second half: every FaultCell the conformance table declares must
// behave exactly as declared. Clean cells must be exhausted by the model
// checker under their weakened shmem.Model — every schedule, every crash
// pattern up to the cap, every restart interleaving within the budget, and
// every stale-read resolution the model admits. Expected-violation cells
// must yield the named violation, and their committed reproducer line must
// parse and replay to the same failure class through the adversary layer —
// the proof that the one-line-witness workflow spans fault models.
func TestProveFaultCells(t *testing.T) {
	cols := map[string]bool{}
	provenPerModel := map[string]int{}
	violations := 0
	for _, tc := range conformance.Cases() {
		tc := tc
		if len(tc.Fault) == 0 {
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			for _, cell := range tc.Fault {
				cell := cell
				n := cell.N
				rep := model.Check(tc.Name,
					func() check.Renamer { return tc.New(n, 1) },
					n, tc.Origs(n, 1), tc.Suite(n, "model"),
					model.Options{MaxCrashes: cell.MaxCrashes, Model: cell.Model})
				cols[cell.Model.String()] = true
				checkPin(t, fmt.Sprintf("fault/%s/n=%d/crashes=%d/model=%s", tc.Name, n, cell.MaxCrashes, cell.Model), &rep)
				if cell.ExpectViolation == "" {
					if rep.Violation != nil {
						t.Fatalf("n=%d crashes<=%d model=%s: invariant VIOLATED:\n%s",
							n, cell.MaxCrashes, cell.Model, rep.Violation)
					}
					if !rep.Proven() {
						t.Fatalf("n=%d crashes<=%d model=%s: tree not exhausted — the table over-declares: %s",
							n, cell.MaxCrashes, cell.Model, rep.Summary())
					}
					provenPerModel[cell.Model.String()]++
					t.Log(rep.Summary())
					continue
				}
				// Expected-violation cell: the weakened model is outside the
				// algorithm's claim and the checker must find the break.
				if rep.Violation == nil {
					t.Fatalf("n=%d model=%s: expected a %q violation, tree came back clean: %s",
						n, cell.Model, cell.ExpectViolation, rep.Summary())
				}
				if !strings.Contains(rep.Violation.Err.Error(), cell.ExpectViolation) {
					t.Fatalf("n=%d model=%s: violation %v does not match expected %q",
						n, cell.Model, rep.Violation, cell.ExpectViolation)
				}
				violations++
				t.Logf("expected violation confirmed: %v", rep.Violation)
				if cell.Repro == "" {
					t.Fatalf("n=%d model=%s: expected-violation cell carries no reproducer line", n, cell.Model)
				}
				pr, err := adversary.Parse(cell.Repro)
				if err != nil {
					t.Fatalf("committed reproducer does not parse: %v", err)
				}
				spec := adversary.Spec{Label: tc.Name, New: tc.New, Origs: tc.Origs, Suite: tc.Suite}
				verr := adversary.Replay(&spec, pr)
				if verr == nil {
					t.Fatalf("committed reproducer %s no longer replays", cell.Repro)
				}
				if !strings.Contains(verr.Error(), cell.ExpectViolation) {
					t.Fatalf("reproducer replay failure %v does not match expected %q", verr, cell.ExpectViolation)
				}
				t.Logf("reproducer replays: %v", verr)
			}
		})
	}
	// Pin the frontier: the table must keep at least the regular, safe and
	// recovery columns, each with a proven cell at n <= 3, plus at least one
	// expected-violation cell — the fault-model expansion's acceptance shape.
	for _, m := range []string{"regular", "safe", "recovery"} {
		if !cols[m] {
			t.Errorf("fault-model column %q missing from the conformance table", m)
		}
		if provenPerModel[m] == 0 {
			t.Errorf("fault-model column %q has no proven cell", m)
		}
	}
	if violations == 0 {
		t.Error("conformance table declares no expected-violation cell")
	}
}

// The conformance sweep lives in package model_test so it can consume
// internal/conformance (which imports core) without entangling the checker
// itself with the algorithm table.
package model_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/model"
)

// TestProveConformanceTable is the model-check acceptance run: every cell
// the conformance table declares proven must actually be exhausted by the
// model checker — the full schedule-and-crash tree of the fixed-seed
// instance, clean under the algorithm's own invariant suite. This is the CI
// `model-check` job's entry point; a cell that stops proving (a tree that
// grew past exhaustion, or a genuine violation) fails here, not silently.
func TestProveConformanceTable(t *testing.T) {
	proven := 0
	for _, tc := range conformance.Cases() {
		tc := tc
		if len(tc.Proven) == 0 {
			t.Errorf("%s: conformance table declares no proven cells; every algorithm must have at least one", tc.Name)
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			for _, cell := range tc.Proven {
				cell := cell
				if testing.Short() && cell.N >= 5 {
					// The n=5 walks are the bulk of the sweep's wall-clock;
					// the quick tier keeps the n <= 4 proofs, the dedicated
					// model-check job runs everything.
					continue
				}
				n := cell.N
				rep := model.Check(tc.Name,
					func() check.Renamer { return tc.New(n, 1) },
					n, tc.Origs(n, 1), tc.Suite(n, "model"),
					model.Options{MaxCrashes: cell.MaxCrashes})
				if rep.Violation != nil {
					t.Fatalf("n=%d crashes<=%d: invariant VIOLATED:\n%s", n, cell.MaxCrashes, rep.Violation)
				}
				if !rep.Proven() {
					t.Fatalf("n=%d crashes<=%d: tree not exhausted — the table over-declares: %s", n, cell.MaxCrashes, rep.Summary())
				}
				if rep.Replayed != 0 {
					t.Fatalf("n=%d: the stateful engine replayed %d grants; restore must replace replay", n, rep.Replayed)
				}
				checkPin(t, fmt.Sprintf("proven/%s/n=%d/crashes=%d", tc.Name, n, cell.MaxCrashes), &rep)
				proven++
				t.Log(rep.Summary())
			}
		})
	}
	// The post-PR-5 frontier: the four stage-light algorithms prove through
	// n=5 with full crash branching; the stage-chaining two prove at n=2,
	// now also with full crash branching (Adaptive's crash cell is new —
	// stateless search only reached its crash-free tree). Pin it so the
	// table cannot silently shrink.
	want := map[string]int{"majority": 5, "basic": 5, "polylog": 5, "almostadaptive": 5, "efficient": 2, "adaptive": 2, "firstfit": 2}
	for _, tc := range conformance.Cases() {
		ns := tc.ProvenNs()
		if len(ns) == 0 || ns[len(ns)-1] < want[tc.Name] {
			t.Errorf("%s: proven sizes %v regressed below n=%d", tc.Name, ns, want[tc.Name])
		}
		// Every declared cell must branch crashes all the way to n-1: a
		// crash-free-only cell would silently weaken the frontier.
		for _, cell := range tc.Proven {
			if cell.MaxCrashes != cell.N-1 {
				t.Errorf("%s: cell n=%d caps crashes at %d, want full branching %d", tc.Name, cell.N, cell.MaxCrashes, cell.N-1)
			}
		}
	}
}

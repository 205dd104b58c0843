package model_test

// Race-analysis differential: source-DPOR's incremental happens-before layer
// must drive a walk bit-identical to the from-scratch rebuild reference —
// same backtrack sets (asserted per backtrack by RaceDifferential inside the
// engine), and same Report counts over every fixture and fault model here.
// The fuzz arm widens the cell coordinates; its committed corpus pins a
// restart-carrying and a stale-read trace.

import (
	"testing"

	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/model"
	"repro/internal/shmem"
)

// checkCell runs one model-checking cell in the given race mode.
func checkCell(tc conformance.Case, n, maxCrashes int, m shmem.Model, budget int, race model.RaceMode) model.Report {
	return model.Check(tc.Name,
		func() check.Renamer { return tc.New(n, 1) },
		n, tc.Origs(n, 1), tc.Suite(n, "model"),
		model.Options{
			MaxCrashes: maxCrashes,
			Model:      m,
			Budget:     budget,
			Race:       race,
		})
}

// raceCounts is the mode-independent slice of a Report: everything that
// describes the walked tree. RaceEvents/RaceTime are work accounting and
// differ across modes by design.
type raceCounts struct {
	Executions, Partial, Explored, Pruned, Replayed, Restored, Deduped int
	Complete, Violated                                                 bool
}

func countsOf(r model.Report) raceCounts {
	return raceCounts{r.Executions, r.Partial, r.Explored, r.Pruned, r.Replayed, r.Restored, r.Deduped, r.Complete, r.Violation != nil}
}

func TestIncrementalHBDifferential(t *testing.T) {
	cases := map[string]conformance.Case{}
	for _, tc := range conformance.Cases() {
		cases[tc.Name] = tc
	}
	cells := []struct {
		name       string
		algo       string
		n          int
		maxCrashes int
		model      shmem.Model
	}{
		{"majority-n3-crash1", "majority", 3, 1, shmem.Model{}},
		{"basic-n3", "basic", 3, 0, shmem.Model{}},
		{"firstfit-n2-regular-crash1", "firstfit", 2, 1, shmem.Model{Regs: shmem.RegRegular}},
		{"firstfit-n2-safe-crash1", "firstfit", 2, 1, shmem.Model{Regs: shmem.RegSafe}},
		{"basic-n2-recovery-crash1", "basic", 2, 1, shmem.Model{Recovery: true}},
		{"efficient-n2-crash1", "efficient", 2, 1, shmem.Model{}},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			tc, ok := cases[cell.algo]
			if !ok {
				t.Fatalf("conformance case %s missing", cell.algo)
			}
			inc := checkCell(tc, cell.n, cell.maxCrashes, cell.model, 0, model.RaceIncremental)
			reb := checkCell(tc, cell.n, cell.maxCrashes, cell.model, 0, model.RaceRebuild)
			// The differential mode re-runs the walk asserting per-backtrack
			// equality of backtrack sets and relation rows inside the engine.
			diff := checkCell(tc, cell.n, cell.maxCrashes, cell.model, 0, model.RaceDifferential)
			ic, rc, dc := countsOf(inc), countsOf(reb), countsOf(diff)
			if ic != rc || ic != dc {
				t.Fatalf("race modes walked different trees:\n  incremental  %+v\n  rebuild      %+v\n  differential %+v", ic, rc, dc)
			}
			if !inc.Complete {
				t.Fatalf("cell must exhaust its tree, got %s", inc.Summary())
			}
			if inc.RaceEvents == 0 || reb.RaceEvents == 0 {
				t.Fatalf("race accounting missing: incremental %d, rebuild %d", inc.RaceEvents, reb.RaceEvents)
			}
			if inc.RaceEvents > reb.RaceEvents {
				t.Fatalf("incremental layer derived %d rows, rebuild %d — the layer must never do more", inc.RaceEvents, reb.RaceEvents)
			}
			t.Logf("%d executions; hb rows: %d incremental vs %d rebuild (%.1fx less)",
				inc.Executions, inc.RaceEvents, reb.RaceEvents, float64(reb.RaceEvents)/float64(inc.RaceEvents))
		})
	}
}

// FuzzIncrementalHB mutates the cell coordinates — algorithm, population,
// crash budget, fault model — and runs the checker in RaceDifferential mode:
// the engine panics on the first backtrack where the incremental relation or
// the backtrack sets it feeds diverge from the from-scratch reference. The
// committed corpus includes a restart-carrying cell (recovery model) and a
// stale-read cell (regular registers).
func FuzzIncrementalHB(f *testing.F) {
	f.Add(0, 3, 1, 0) // majority n=3, crash branching, atomic
	f.Add(1, 2, 1, 3) // basic n=2, recovery: restart-carrying traces
	f.Add(6, 2, 1, 1) // firstfit n=2, regular regs: stale-read traces
	f.Add(3, 2, 1, 0) // efficient n=2: Ref registers, budget-capped
	cases := conformance.Cases()
	f.Fuzz(func(t *testing.T, algo, n, crashes, modelBits int) {
		abs := func(v int) int {
			if v < 0 {
				// MinInt-safe: any fixed non-negative fallback keeps the
				// mapping total.
				if v == -v {
					return 0
				}
				return -v
			}
			return v
		}
		tc := cases[abs(algo)%len(cases)]
		pop := 2 + abs(n)%2
		maxCrashes := abs(crashes) % pop
		var m shmem.Model
		switch abs(modelBits) % 3 {
		case 1:
			m.Regs = shmem.RegRegular
		case 2:
			m.Regs = shmem.RegSafe
		}
		if (abs(modelBits)/3)%2 == 1 {
			m.Recovery = true
		}
		// The budget caps cells whose trees don't exhaust (stage-chaining
		// algorithms); a budgeted walk still differentials every backtrack
		// it performs. Expected invariant violations (firstfit under weak
		// registers) stop the walk cleanly and are not failures here.
		checkCell(tc, pop, maxCrashes, m, 3000, model.RaceDifferential)
	})
}

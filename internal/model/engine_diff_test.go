package model_test

// Report-level engine differential: a model-checking run is a function of
// the tree, not of the engine that executes it. Check with Engine=vexec must
// produce a byte-identical Report to the goroutine oracle — same execution,
// prefix, decision, prune, dedup and restore counts, and the same verdict.
// Deduped equality is the state-hash cross-check at the proof layer: the
// stateful walker cuts a node only on a 128-bit hash match, so equal dedup
// behavior over the whole tree means the two engines hashed every revisited
// state identically. The exhaustive trace-level crosscheck lives in
// vexec_crosscheck_test.go; this test certifies the layer above it — what
// the prover actually reports.

import (
	"testing"

	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/model"
	"repro/internal/shmem"
)

func TestEngineReportDifferential(t *testing.T) {
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
		walker     model.Walker
	}{
		// The default stateful walker, crash-free and with full branching.
		{"majority-n3-sourcedpor", "majority", 3, 0, shmem.Model{}, model.WalkerSourceDPOR},
		{"majority-n3-sourcedpor-crash1", "majority", 3, 1, shmem.Model{}, model.WalkerSourceDPOR},
		{"firstfit-n2-sourcedpor-crash1", "firstfit", 2, 1, shmem.Model{}, model.WalkerSourceDPOR},
		// The stateless hash-free walker: counts must agree without any
		// dedup in the loop.
		{"basic-n3-sleepset", "basic", 3, 0, shmem.Model{}, model.WalkerSleepSet},
		{"firstfit-n2-sleepset-crash1", "firstfit", 2, 1, shmem.Model{}, model.WalkerSleepSet},
		// Fault models: stale-choice branching and restart branching add
		// engine-driven decisions to the tree.
		{"firstfit-n2-safe", "firstfit", 2, 1, shmem.Model{Regs: shmem.RegSafe}, model.WalkerSourceDPOR},
		{"basic-n2-recovery", "basic", 2, 1, shmem.Model{Recovery: true}, model.WalkerSourceDPOR},
		// A stage-chaining algorithm (snapshot frames, Ref registers): dedup
		// hashes cover Ref stamps, canonical within each engine instance.
		{"efficient-n2-sourcedpor", "efficient", 2, 1, shmem.Model{}, model.WalkerSourceDPOR},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			tc, ok := cases[cell.algo]
			if !ok {
				t.Fatalf("conformance case %s missing", cell.algo)
			}
			run := func(eng model.Engine) model.Report {
				return model.Check(tc.Name,
					func() check.Renamer { return tc.New(cell.n, 1) },
					cell.n, tc.Origs(cell.n, 1), tc.Suite(cell.n, "model"),
					model.Options{
						MaxCrashes: cell.maxCrashes,
						Model:      cell.model,
						Walker:     cell.walker,
						Engine:     eng,
					})
			}
			g := run(model.EngineGoroutine)
			v := run(model.EngineVexec)
			if g.Engine != model.EngineGoroutine || v.Engine != model.EngineVexec {
				t.Fatalf("resolved engines: %v and %v", g.Engine, v.Engine)
			}
			type counts struct {
				Executions, Partial, Explored, Pruned, Replayed, Restored, Deduped int
				Complete                                                           bool
			}
			gc := counts{g.Executions, g.Partial, g.Explored, g.Pruned, g.Replayed, g.Restored, g.Deduped, g.Complete}
			vc := counts{v.Executions, v.Partial, v.Explored, v.Pruned, v.Replayed, v.Restored, v.Deduped, v.Complete}
			if gc != vc {
				t.Fatalf("reports diverge:\n  goroutine %+v\n  vexec     %+v", gc, vc)
			}
			if (g.Violation == nil) != (v.Violation == nil) {
				t.Fatalf("verdicts diverge: goroutine violation %v, vexec %v", g.Violation, v.Violation)
			}
			if !g.Proven() {
				t.Fatalf("cell must prove on both engines, got %s", g.Summary())
			}
			t.Logf("both engines: %d executions, %d decisions, %d deduped, %d restored",
				gc.Executions, gc.Explored, gc.Deduped, gc.Restored)
		})
	}
}

// Long-lived service proofs: the model checker exhausts the complete
// schedule-and-crash tree of a small acquire/release/reacquire workload over
// the generation-based service layer, for two distinct one-shot backends.
// Lives in package model_test for the same reason as the conformance sweep
// (it consumes a higher-level package without entangling the checker).
package model_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/model"
	"repro/internal/service"
)

// TestProveLongLivedService is the long-lived acceptance proof (CI
// model-check job): for the firstfit and majority backends, every
// interleaving — with crash branching — of two lanes each running
// acquire → release → reacquire → release against one shared service is
// exhausted, with the online long-lived audit (live exclusivity, no leak on
// recycle, epoch monotonicity, reclaim-once, lifecycle) panicking inside any
// violating step and final packed names checked exclusive. The fixture's
// bookkeeping lives outside engine register state, so the proof uses the
// stateless walker (fresh service per execution, prefix replay) — the
// checkpointing walker is structurally incompatible and must stay off.
func TestProveLongLivedService(t *testing.T) {
	const sessionsPer = 2 // acquire → release → reacquire → release per lane
	cells := []struct {
		algo   string
		n, cap int
		engine model.Engine
	}{
		// firstfit packs both lanes onto the same generation's shared scan,
		// so every cross-session register race is in the tree; n=2 is the
		// exhaustion frontier (n=3 exceeds 3M budget even crash-free).
		{"firstfit", 2, 2, model.EngineVexec},
		// Engine cross-check: the same workload walked on the goroutine
		// oracle (session bodies instead of frame automata).
		{"firstfit", 2, 2, model.EngineGoroutine},
		// majority spreads contenders across expander neighborhoods, which
		// keeps its tree small enough to prove at n=3.
		{"majority", 3, 3, model.EngineVexec},
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%s-n%d-%s", c.algo, c.n, c.engine), func(t *testing.T) {
			rep := model.Check("service-"+c.algo,
				func() check.Renamer { return service.NewLLFixture(c.algo, c.n, c.cap, sessionsPer, 7) },
				c.n, nil, check.Suite{check.Exclusive()},
				model.Options{MaxCrashes: c.n - 1, Walker: model.WalkerSleepSet, Engine: c.engine})
			if rep.Violation != nil {
				t.Fatalf("long-lived invariant VIOLATED:\n%s", rep.Violation)
			}
			if !rep.Proven() {
				t.Fatalf("tree not exhausted: %s", rep.Summary())
			}
			checkPin(t, fmt.Sprintf("service/%s/n=%d/%s", c.algo, c.n, c.engine), &rep)
			t.Log(rep.Summary())
		})
	}
}

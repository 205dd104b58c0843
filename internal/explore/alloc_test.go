package explore

import (
	"runtime"
	"testing"

	"repro/internal/conformance"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// TestSourceDPORWalkAllocs pins the allocation-free stateful walk on the
// vectorized engine: once a walk has grown its buffers, a decision allocates
// nothing. The frame stack reuses each popped slot's sleep buffer, the
// subtree footprints are packed rows per stack depth, checkpoints recycle
// through the engine's snapshot pool, and Restore copies lane images back
// into the existing frames instead of building fresh roots and replaying.
// The walk is driven by hand — driveStateful's loop minus the per-execution
// Result, which only feeds OnResult — and measured after a warm-up share of
// its decisions, so what remains is the amortized growth of the closed-state
// table and its arenas. A walk that allocates a footprint set or a sleep set
// per node, or a root per restored lane, costs several allocations per
// decision and trips the bound.
func TestSourceDPORWalkAllocs(t *testing.T) {
	var tc conformance.Case
	for _, c := range conformance.Cases() {
		if c.Name == "majority" {
			tc = c
		}
	}
	const n, seed, warm = 4, 1, 1000
	fr := tc.New(n, seed).(vexec.FrameRenamer)
	got, oks := make([]int64, n), make([]bool, n)
	e := vexec.New(n, tc.Origs(n, seed), func(p *shmem.Proc) vexec.Frame {
		return vexec.Capture(fr.FrameRename(p.Name()), &got[p.ID()], &oks[p.ID()])
	})
	e.EnableState()
	s := NewSourceDPOR(seed, 0, n-1)

	var before, after runtime.MemStats
	var tr sched.Trace
	for {
		for live(e) {
			if s.stats.Explored == warm {
				runtime.GC()
				runtime.ReadMemStats(&before)
			}
			ch := s.Next(e)
			if ch.Pid < 0 {
				break
			}
			dispatch(e, ch)
		}
		tr = e.TraceInto(tr)
		if !s.BacktrackState(e, tr, sched.Result{}) {
			break
		}
	}
	runtime.ReadMemStats(&after)
	st := s.Stats()
	if !st.Complete || st.Restored == 0 || st.Explored <= 2*warm {
		t.Fatalf("walk did not exhaust a tree of more than %d decisions through restores: %+v", 2*warm, st)
	}
	allocs := after.Mallocs - before.Mallocs
	perDecision := float64(allocs) / float64(st.Explored-warm)
	t.Logf("majority n=%d: %d decisions (%d measured), %d restores, %d allocations (%.3f per decision)",
		n, st.Explored, st.Explored-warm, st.Restored, allocs, perDecision)
	if perDecision > 0.1 {
		t.Fatalf("stateful walk allocates %.3f objects per decision, want <= 0.1 (a per-node or per-restore allocation crept back)", perDecision)
	}
}

package explore

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// TestSourceDPORMatchesBruteForce is the soundness anchor: the stateful
// source-set engine must reach every final-state outcome the full schedule
// tree reaches, while marking the search complete.
func TestSourceDPORMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 3} {
		want := bruteForce(t, n, 0, raceSystem(n))
		got, st := driveTree(t, NewSourceDPOR(1, 0, 0), n, raceSystem(n))
		if !st.Complete {
			t.Fatalf("n=%d: source-DPOR did not exhaust its reduced tree: %+v", n, st)
		}
		for o := range want {
			if !got[o] {
				t.Fatalf("n=%d: outcome %q reachable but never explored by source-DPOR", n, o)
			}
		}
		if st.Replayed != 0 {
			t.Fatalf("n=%d: stateful search replayed %d grants; restore must replace replay entirely", n, st.Replayed)
		}
	}
}

// TestSourceDPORNoDedupMatchesBruteForce: the pure source-set engine
// (dedup off) is sound on its own.
func TestSourceDPORNoDedupMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 3} {
		want := bruteForce(t, n, 0, raceSystem(n))
		got, st := driveTree(t, NewSourceDPOR(1, 0, 0).DisableDedup(), n, raceSystem(n))
		if !st.Complete {
			t.Fatalf("n=%d: search incomplete: %+v", n, st)
		}
		for o := range want {
			if !got[o] {
				t.Fatalf("n=%d: outcome %q reachable but never explored", n, o)
			}
		}
	}
}

// TestSourceDPORCrashBranching: with crash branching the engine reaches
// every survivor pattern, like the exhaustive sleep-set walker.
func TestSourceDPORCrashBranching(t *testing.T) {
	const n = 2
	got, st := driveTree(t, NewSourceDPOR(1, 0, n), n, raceSystem(n))
	if !st.Complete {
		t.Fatalf("crash-branching walk incomplete: %+v", st)
	}
	want, _ := driveTree(t, NewSleepSet(1, 0, n), n, raceSystem(n))
	for o := range want {
		if !got[o] {
			t.Fatalf("outcome %q reached by sleep-set crash walk but not source-DPOR", o)
		}
	}
}

// TestSourceDPORNotWeakerThanDPOR: on the contended fixture the source-set
// engine must explore no more decisions than the stateless sleep-set walker
// at full coverage — the reduction race analysis buys over sleep sets alone
// — and restore instead of replay.
func TestSourceDPORNotWeakerThanDPOR(t *testing.T) {
	for _, n := range []int{3, 4} {
		_, ss := driveTree(t, NewSleepSet(1, 0, 0), n, raceSystem(n))
		_, src := driveTree(t, NewSourceDPOR(1, 0, 0), n, raceSystem(n))
		if !ss.Complete || !src.Complete {
			t.Fatalf("n=%d: incomplete walks: sleepset %+v, sourcedpor %+v", n, ss, src)
		}
		if src.Explored > ss.Explored {
			t.Fatalf("n=%d: source-DPOR explored %d decisions, sleep-set %d — source sets must not be weaker",
				n, src.Explored, ss.Explored)
		}
		if src.Replayed != 0 || ss.Replayed == 0 {
			t.Fatalf("n=%d: replay accounting inverted: source %d, stateless %d", n, src.Replayed, ss.Replayed)
		}
		if src.Restored == 0 {
			t.Fatalf("n=%d: no restores recorded on a branching tree: %+v", n, src)
		}
	}
}

// convergeSystem builds a fixture whose interleavings converge to identical
// states: every process blind-writes the same value to the same register
// several times. All writes conflict (no commuting to prune), but after any
// k grants the state is the same no matter who moved — exactly what
// state-hash dedup collapses and pure partial-order reasoning cannot.
func convergeSystem(n, rounds int) func() (sched.Body, func(res sched.Result) string) {
	return func() (sched.Body, func(res sched.Result) string) {
		var r shmem.Reg
		body := func(p *shmem.Proc) {
			for i := 0; i < rounds; i++ {
				p.Write(&r, 7)
			}
		}
		return body, func(res sched.Result) string { return "done" }
	}
}

// TestSourceDPORDedupCollapsesConvergingStates: on the converging fixture
// the dedup'd search must cut revisited states and finish strictly smaller
// than the dedup-free search, with identical (complete) coverage.
func TestSourceDPORDedupCollapsesConvergingStates(t *testing.T) {
	const n, rounds = 3, 3
	_, plain := driveTree(t, NewSourceDPOR(1, 0, 0).DisableDedup(), n, convergeSystem(n, rounds))
	_, dedup := driveTree(t, NewSourceDPOR(1, 0, 0), n, convergeSystem(n, rounds))
	if !plain.Complete || !dedup.Complete {
		t.Fatalf("incomplete walks: plain %+v, dedup %+v", plain, dedup)
	}
	if dedup.Deduped == 0 {
		t.Fatalf("no states deduped on a converging system: %+v", dedup)
	}
	if dedup.Explored >= plain.Explored {
		t.Fatalf("dedup did not shrink the walk: %d explored with dedup, %d without", dedup.Explored, plain.Explored)
	}
}

// TestSourceDPORBudgetStops: a budget caps executions without claiming
// completeness.
func TestSourceDPORBudgetStops(t *testing.T) {
	_, st := driveTree(t, NewSourceDPOR(1, 2, 0), 3, raceSystem(3))
	if st.Executions+st.Partial > 2 {
		t.Fatalf("budget 2 exceeded: %+v", st)
	}
	if st.Complete {
		t.Fatal("budgeted search claimed completeness")
	}
}

// TestSourceDPORDeterminism: two identical searches take identical stats
// (RaceNs is wall-clock and excluded).
func TestSourceDPORDeterminism(t *testing.T) {
	_, a := driveTree(t, NewSourceDPOR(7, 0, 1), 3, raceSystem(3))
	_, b := driveTree(t, NewSourceDPOR(7, 0, 1), 3, raceSystem(3))
	a.RaceNs, b.RaceNs = 0, 0
	if a != b {
		t.Fatalf("source-DPOR search not deterministic: %+v vs %+v", a, b)
	}
}

// TestSourceDPORStatefulReset: a body that clears its own outcome slot
// first never leaks a capture across branches — every restore respawns or
// keeps each process with its slot consistent with the restored state.
func TestSourceDPORStatefulReset(t *testing.T) {
	const n = 2
	got := make([]int64, n)
	var r shmem.Reg
	st := Drive(NewSourceDPOR(1, 0, 0), Config{
		N: n,
		Body: func(run int) sched.Body {
			return func(p *shmem.Proc) {
				got[p.ID()] = 0
				p.Write(&r, int64(p.ID()+1))
				got[p.ID()] = p.Read(&r)
			}
		},
		OnResult: func(run int, tr sched.Trace, res sched.Result) bool {
			for pid := 0; pid < n; pid++ {
				if got[pid] < 1 || got[pid] > n {
					t.Fatalf("run %d: stale capture got[%d]=%d", run, pid, got[pid])
				}
			}
			return true
		},
	})
	if !st.Complete {
		t.Fatalf("walk incomplete: %+v", st)
	}
}

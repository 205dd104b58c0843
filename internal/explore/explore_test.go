package explore

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// raceBody is a tiny nondeterministic protocol: each process writes its id
// into the shared register, reads it back, and returns what it saw. The
// final values depend on the interleaving, so the set of reachable outcome
// vectors is a faithful signature of schedule coverage. The body clears its
// own capture slot first, so a single fixture driven by a stateful
// (checkpoint/restore) strategy never leaks an abandoned branch's
// observation into the next: catch-up re-runs the body from the top.
func raceBody(r *shmem.Reg, got []int64) sched.Body {
	return func(p *shmem.Proc) {
		got[p.ID()] = 0
		p.Write(r, int64(p.ID()+1))
		got[p.ID()] = p.Read(r)
	}
}

// outcome renders an execution's observable final state.
func outcome(got []int64, res sched.Result) string {
	s := ""
	for i, v := range got {
		crashed := res.Crashed[i]
		s += fmt.Sprintf("%d:%d:%v ", i, v, crashed)
	}
	return s
}

// bruteForce enumerates every complete schedule of mk's system — crashing
// each pending process as its own branch while fewer than maxCrashes crashes
// have been injected — by explicit tree walking (rebuild + replay per node)
// and returns the set of reachable outcomes. Exponential — callers keep the
// system tiny.
func bruteForce(t *testing.T, n, maxCrashes int, mk func() (sched.Body, func(res sched.Result) string)) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	var walk func(prefix sched.Trace, crashes int)
	walk = func(prefix sched.Trace, crashes int) {
		body, fin := mk()
		c, err := sched.ReplayTrace(n, nil, body, prefix)
		if err != nil {
			t.Fatalf("brute-force replay: %v", err)
		}
		if c.PendingCount() == 0 {
			out[fin(c.Result())] = true
			return
		}
		var pids []int
		for pid := c.NextPending(-1); pid >= 0; pid = c.NextPending(pid) {
			pids = append(pids, pid)
		}
		ev := make(sched.Trace, len(prefix), len(prefix)+1)
		copy(ev, prefix)
		for _, pid := range pids {
			in := c.Intent(pid)
			walk(append(ev, sched.TraceEvent{Pid: pid, Op: in.Kind, Reg: in.Reg, K: 1}), crashes)
			if crashes < maxCrashes {
				walk(append(ev, sched.TraceEvent{Pid: pid, Op: in.Kind, Reg: in.Reg, Crash: true}), crashes+1)
			}
		}
		c.Abort()
	}
	walk(nil, 0)
	return out
}

// driveTree runs a tree strategy over mk's system and returns the outcomes
// of its complete executions plus the final stats.
func driveTree(t *testing.T, s Strategy, n int, mk func() (sched.Body, func(res sched.Result) string)) (map[string]bool, Stats) {
	t.Helper()
	outcomes := make(map[string]bool)
	if _, stateful := s.(Stateful); stateful {
		// One persistent fixture for the whole search; the bodies used here
		// re-clear their own captures, so no Reset hook is needed.
		body, fin := mk()
		st := Drive(s, Config{
			N:    n,
			Body: func(run int) sched.Body { return body },
			OnResult: func(run int, tr sched.Trace, res sched.Result) bool {
				outcomes[fin(res)] = true
				return true
			},
		})
		return outcomes, st
	}
	var fins []func(res sched.Result) string
	st := Drive(s, Config{
		N: n,
		Body: func(run int) sched.Body {
			body, fin := mk()
			for len(fins) <= run {
				fins = append(fins, nil)
			}
			fins[run] = fin
			return body
		},
		OnResult: func(run int, tr sched.Trace, res sched.Result) bool {
			outcomes[fins[run](res)] = true
			return true
		},
	})
	return outcomes, st
}

// raceSystem builds the shared fixture for n processes.
func raceSystem(n int) func() (sched.Body, func(res sched.Result) string) {
	return func() (sched.Body, func(res sched.Result) string) {
		var r shmem.Reg
		got := make([]int64, n)
		body := raceBody(&r, got)
		return body, func(res sched.Result) string { return outcome(got, res) }
	}
}

// TestSleepSetMatchesBruteForce is the soundness anchor: the sleep-set
// walker must reach every outcome the full schedule tree reaches, for n = 2
// and n = 3, while marking the search complete.
func TestSleepSetMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 3} {
		want := bruteForce(t, n, 0, raceSystem(n))
		got, st := driveTree(t, NewSleepSet(1, 0, 0), n, raceSystem(n))
		if !st.Complete {
			t.Fatalf("n=%d: sleep-set walk did not exhaust the tree: %+v", n, st)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: sleep-set outcomes %d != brute force %d\n got %v\nwant %v", n, len(got), len(want), keys(got), keys(want))
		}
		for o := range want {
			if !got[o] {
				t.Fatalf("n=%d: outcome %q reachable but never explored", n, o)
			}
		}
	}
}

// TestSleepSetPrunesCommutingGrants: processes touching disjoint registers
// commute everywhere, so the reduced tree is a single execution no matter
// the population.
func TestSleepSetPrunesCommutingGrants(t *testing.T) {
	const n = 4
	mk := func() (sched.Body, func(res sched.Result) string) {
		regs := make([]shmem.Reg, n)
		body := func(p *shmem.Proc) {
			p.Write(&regs[p.ID()], 1)
			p.Read(&regs[p.ID()])
		}
		return body, func(res sched.Result) string { return "done" }
	}
	_, st := driveTree(t, NewSleepSet(1, 0, 0), n, mk)
	if !st.Complete {
		t.Fatalf("walk incomplete: %+v", st)
	}
	if st.Executions != 1 {
		t.Fatalf("fully commuting system took %d executions, want 1 (stats %+v)", st.Executions, st)
	}
	if st.Pruned == 0 {
		t.Fatal("no pruning recorded on a fully commuting system")
	}
	// Source-DPOR finds no races at all, so it too finishes in one execution.
	_, st = driveTree(t, NewSourceDPOR(1, 0, 0), n, mk)
	if !st.Complete || st.Executions != 1 {
		t.Fatalf("source-DPOR on a race-free system: %+v, want 1 complete execution", st)
	}
}

// TestSleepSetCrashBranching: with crash branching enabled, every crash
// pattern's observable outcome is reached — including each solo-survivor
// state — and the search still completes.
func TestSleepSetCrashBranching(t *testing.T) {
	const n = 2
	mk := raceSystem(n)
	got, st := driveTree(t, NewSleepSet(1, 0, n), n, mk)
	if !st.Complete {
		t.Fatalf("crash-branching walk incomplete: %+v", st)
	}
	// Every survivor pattern — both live, only 0, only 1, none — must appear
	// among the outcomes (crash flags are part of the outcome string).
	masks := map[string]bool{}
	for o := range got {
		mask := ""
		for pid := 0; pid < n; pid++ {
			if contains(o, fmt.Sprintf("%d:0:true", pid)) || contains(o, fmt.Sprintf("%d:1:true", pid)) || contains(o, fmt.Sprintf("%d:2:true", pid)) {
				mask += "x"
			} else {
				mask += "."
			}
		}
		masks[mask] = true
	}
	for _, want := range []string{"..", "x.", ".x", "xx"} {
		if !masks[want] {
			t.Fatalf("survivor pattern %q never reached; outcomes: %v", want, keys(got))
		}
	}
}

// TestCrashBranchingMatchesBruteForce anchors crash branching: for every
// crash cap up to n, both tree walkers must reach exactly the outcomes of the
// brute-force schedule-and-crash tree — crash flags are part of the outcome,
// so every survivor pattern counts, including the one where everybody
// crashed. Both walkers share pickNext's dead-crash cut, so comparing them
// against each other alone could not catch an unsound cut.
func TestCrashBranchingMatchesBruteForce(t *testing.T) {
	for _, n := range []int{2, 3} {
		allCrashed := ""
		for pid := 0; pid < n; pid++ {
			allCrashed += fmt.Sprintf("%d:0:true ", pid)
		}
		for maxCrashes := 1; maxCrashes <= n; maxCrashes++ {
			want := bruteForce(t, n, maxCrashes, raceSystem(n))
			if want[allCrashed] != (maxCrashes == n) {
				t.Fatalf("n=%d crashes<=%d: brute force reaches all-crashed outcome: %v", n, maxCrashes, want[allCrashed])
			}
			for _, s := range []Strategy{NewSleepSet(1, 0, maxCrashes), NewSourceDPOR(1, 0, maxCrashes)} {
				got, st := driveTree(t, s, n, raceSystem(n))
				if !st.Complete {
					t.Fatalf("n=%d crashes<=%d %s: walk incomplete: %+v", n, maxCrashes, s.Name(), st)
				}
				if fmt.Sprint(keys(got)) != fmt.Sprint(keys(want)) {
					t.Fatalf("n=%d crashes<=%d %s: outcomes differ from brute force\n got %v\nwant %v",
						n, maxCrashes, s.Name(), keys(got), keys(want))
				}
			}
		}
	}
}

// TestTreeBudgetStops: a budget caps executions without claiming
// completeness.
func TestTreeBudgetStops(t *testing.T) {
	_, st := driveTree(t, NewSleepSet(1, 2, 0), 3, raceSystem(3))
	if st.Executions+st.Partial > 2 {
		t.Fatalf("budget 2 exceeded: %+v", st)
	}
	if st.Complete {
		t.Fatal("budgeted search claimed completeness")
	}
}

// TestTreeDeterminism: two identical searches take identical stats.
func TestTreeDeterminism(t *testing.T) {
	_, a := driveTree(t, NewSleepSet(7, 0, 2), 2, raceSystem(2))
	_, b := driveTree(t, NewSleepSet(7, 0, 2), 2, raceSystem(2))
	if a != b {
		t.Fatalf("sleep-set search not deterministic: %+v vs %+v", a, b)
	}
}

// TestSeededSequentialMatchesParallel: driving a Seeded strategy through the
// sequential path produces the same fingerprints as the ParallelRuns fast
// path — the property that makes wrapping the families a zero-change
// refactor.
func TestSeededSequentialMatchesParallel(t *testing.T) {
	const n, runs = 4, 6
	mkStrategy := func() *Seeded {
		return NewSeeded("random", runs, func(run int) (sched.Policy, sched.CrashPlan) {
			return sched.NewRandom(uint64(run + 1)), nil
		}, nil)
	}
	collect := func(s Strategy, forceSequential bool) []uint64 {
		var fps []uint64
		cfg := Config{
			N: n,
			Body: func(run int) sched.Body {
				var r shmem.Reg
				return func(p *shmem.Proc) {
					for i := 0; i < 5; i++ {
						p.Read(&r)
					}
				}
			},
			OnResult: func(run int, tr sched.Trace, res sched.Result) bool {
				fps = append(fps, res.Fingerprint)
				return true
			},
		}
		if forceSequential {
			Drive(sequentialOnly{s}, cfg)
		} else {
			Drive(s, cfg)
		}
		return fps
	}
	par := collect(mkStrategy(), false)
	seq := collect(mkStrategy(), true)
	if len(par) != runs || len(seq) != runs {
		t.Fatalf("run counts: parallel %d, sequential %d, want %d", len(par), len(seq), runs)
	}
	for i := range par {
		if par[i] != seq[i] {
			t.Fatalf("run %d: parallel fingerprint %#x != sequential %#x", i, par[i], seq[i])
		}
	}
}

// sequentialOnly hides the Independent implementation so Drive takes the
// Next/Backtrack path.
type sequentialOnly struct{ s Strategy }

func (w sequentialOnly) Name() string               { return w.s.Name() }
func (w sequentialOnly) Next(e sched.Engine) Choice { return w.s.Next(e) }
func (w sequentialOnly) Backtrack(t sched.Trace, res sched.Result) bool {
	return w.s.Backtrack(t, res)
}
func (w sequentialOnly) Stats() Stats { return w.s.Stats() }

// TestCoverageGuidedFindsNovelSchedules: the mutation loop accumulates
// strictly growing fingerprint coverage on a contended system and respects
// its budget.
func TestCoverageGuidedFindsNovelSchedules(t *testing.T) {
	const n, budget = 3, 40
	cfgs := []GenomeConfig{
		{Name: "random", Mk: func(seed uint64) (sched.Policy, sched.CrashPlan) {
			return sched.NewRandom(seed), nil
		}},
		{Name: "roundrobin", Mk: func(seed uint64) (sched.Policy, sched.CrashPlan) {
			return &sched.RoundRobin{}, nil
		}},
	}
	cg := NewCoverageGuided(3, budget, cfgs)
	outcomes, st := driveTree(t, cg, n, raceSystem(n))
	if st.Executions != budget {
		t.Fatalf("executions %d, want the full budget %d", st.Executions, budget)
	}
	if cg.Novel() < 2 {
		t.Fatalf("coverage-guided search found %d novel schedules, want >= 2", cg.Novel())
	}
	if len(outcomes) < 2 {
		t.Fatalf("only %d outcomes reached over %d runs", len(outcomes), budget)
	}
	name, _ := cg.Genome()
	if name != "random" && name != "roundrobin" {
		t.Fatalf("genome config %q not in the pool", name)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

package vexec_test

import (
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// laneFrame writes its lane's id+1 to a shared register, reads the register
// back, writes what it read, and returns that value: three accesses whose
// outcome depends on the interleaving.
type laneFrame struct {
	reg *shmem.Reg
	pc  uint8
	v   int64
}

func (f *laneFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		f.pc = 1
		return m.Intend(shmem.OpWrite, f.reg)
	case 1:
		p.Write(f.reg, int64(p.ID()+1))
		f.pc = 2
		return m.Intend(shmem.OpRead, f.reg)
	case 2:
		f.v = p.Read(f.reg)
		f.pc = 3
		return m.Intend(shmem.OpWrite, f.reg)
	default:
		p.Write(f.reg, f.v)
		return m.Return(f.v, true)
	}
}

// rootCounter builds an n-lane engine over laneFrame whose root builder
// counts, per lane, how often it was called — every spawn, Restart and
// Restore catch-up re-roots through it.
type rootCounter struct {
	e     *vexec.Exec
	roots []int
	got   []int64
	oks   []bool
}

func newRootCounter(n int, m shmem.Model) *rootCounter {
	rc := &rootCounter{roots: make([]int, n), got: make([]int64, n), oks: make([]bool, n)}
	var reg shmem.Reg
	rc.e = vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame {
		rc.roots[p.ID()]++
		return vexec.Capture(&laneFrame{reg: &reg}, &rc.got[p.ID()], &rc.oks[p.ID()])
	})
	if !m.Atomic() {
		rc.e.SetModel(m)
	}
	rc.e.EnableState()
	return rc
}

// restore rewinds to snap and returns the lanes re-rooted by the Restore,
// after checking the engine landed exactly on the captured decision point.
func (rc *rootCounter) restore(t *testing.T, snap vexecState) []int {
	t.Helper()
	clear(rc.roots)
	rc.e.Restore(snap.st)
	if h := rc.e.StateHash(); h != snap.hash {
		t.Fatalf("restored state hash %x, captured %x", h, snap.hash)
	}
	if fp := rc.e.Fingerprint(); fp != snap.fp {
		t.Fatalf("restored fingerprint %#x, captured %#x", fp, snap.fp)
	}
	if got := rc.e.PendingInto(nil); !slices.Equal(got, snap.pending) {
		t.Fatalf("restored pending set %v, captured %v", got, snap.pending)
	}
	var rerooted []int
	for pid, k := range rc.roots {
		if k > 0 {
			rerooted = append(rerooted, pid)
		}
	}
	return rerooted
}

// vexecState is a checkpoint together with the decision point it captured.
type vexecState struct {
	st      sched.ExecState
	hash    [2]uint64
	fp      uint64
	pending []int
}

func (rc *rootCounter) checkpoint() vexecState {
	return vexecState{
		st:      rc.e.Checkpoint(),
		hash:    rc.e.StateHash(),
		fp:      rc.e.Fingerprint(),
		pending: rc.e.PendingInto(nil),
	}
}

// TestRestoreReRootsOnlyMovedLanes pins Restore's cost to what changed: a
// lane standing at its captured position keeps its frames, posted intent and
// outcome slot, and only a lane some decision since the capture moved —
// granted, crashed or restarted — is re-rooted and caught up.
func TestRestoreReRootsOnlyMovedLanes(t *testing.T) {
	t.Run("one-grant-backtrack", func(t *testing.T) {
		rc := newRootCounter(4, shmem.Model{})
		e := rc.e
		for i := 0; i < 3; i++ {
			e.Step(0) // lane 0 finishes
		}
		e.Crash(1)
		e.Step(2)
		want0, wantOK0 := rc.got[0], rc.oks[0]
		if !e.Done(0) || !wantOK0 || want0 == 0 {
			t.Fatalf("lane 0 not finished with an outcome: done=%v got=(%d, %v)", e.Done(0), want0, wantOK0)
		}
		snap := rc.checkpoint()

		e.Step(2)
		if got := rc.restore(t, snap); !slices.Equal(got, []int{2}) {
			t.Fatalf("restore one grant back re-rooted lanes %v, want exactly the granted lane [2]", got)
		}
		if rc.got[0] != want0 || rc.oks[0] != wantOK0 {
			t.Fatalf("finished lane's outcome slot (%d, %v) after restore, want (%d, %v)", rc.got[0], rc.oks[0], want0, wantOK0)
		}

		// Run every other lane to completion (lane 3 crashes midway), then
		// come back: the finished and the crashed lane of the capture stay
		// untouched, and both outcome slots the excursion filled are cleared.
		e.Step(3)
		e.Crash(3)
		for e.PendingCount() > 0 {
			e.Step(e.NextPending(-1))
		}
		if !e.Done(2) || !rc.oks[2] {
			t.Fatalf("lane 2 did not finish the excursion")
		}
		if got := rc.restore(t, snap); !slices.Equal(got, []int{2, 3}) {
			t.Fatalf("restore after the excursion re-rooted lanes %v, want the moved lanes [2 3]", got)
		}
		if rc.got[0] != want0 || rc.oks[0] != wantOK0 {
			t.Fatalf("finished lane's outcome slot (%d, %v) after restore, want (%d, %v)", rc.got[0], rc.oks[0], want0, wantOK0)
		}
		if rc.got[2] != 0 || rc.oks[2] {
			t.Fatalf("re-rooted lane 2 kept the excursion's outcome (%d, %v)", rc.got[2], rc.oks[2])
		}
		if !e.Done(0) || !e.Crashed(1) || e.Done(2) || e.Crashed(3) {
			t.Fatalf("lane phases after restore: done(0)=%v crashed(1)=%v done(2)=%v crashed(3)=%v",
				e.Done(0), e.Crashed(1), e.Done(2), e.Crashed(3))
		}

		// The restored lanes continue exactly as the captured ones would.
		e.Step(2)
		e.Step(2)
		if !e.Done(2) || !rc.oks[2] {
			t.Fatalf("lane 2 did not finish after restore")
		}
	})

	t.Run("restart-after-capture", func(t *testing.T) {
		// Crash, capture, then Restart and crash again before taking a step:
		// lane 0 is back in the crashed phase at the captured step count, and
		// only its incarnation differs. It must be re-rooted all the same.
		rc := newRootCounter(2, shmem.Model{Recovery: true})
		e := rc.e
		e.Step(1)
		e.Crash(0)
		snap := rc.checkpoint()
		e.Restart(0)
		e.Crash(0)
		if !e.Crashed(0) || e.Proc(0).Restarts() != 1 {
			t.Fatalf("lane 0 not crashed in its second incarnation")
		}
		if got := rc.restore(t, snap); !slices.Equal(got, []int{0}) {
			t.Fatalf("restore across a restart re-rooted lanes %v, want the restarted lane [0]", got)
		}
		if e.Proc(0).Restarts() != 0 || e.Restarts() != 0 {
			t.Fatalf("restart counts after restore: lane %d, engine %d; want 0", e.Proc(0).Restarts(), e.Restarts())
		}
	})
}

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
// outcome depends on the interleaving. loads counts the images loaded into
// it.
type laneFrame struct {
	reg   *shmem.Reg
	loads *int
	pc    uint8
	v     int64
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

func (f *laneFrame) Image(img any, load bool) any {
	if load {
		*f.loads++
	}
	return vexec.ValueImage(f, img, load)
}

// rootCounter builds an n-lane engine over laneFrame that counts, per lane,
// the roots its builder built (every spawn and Restart builds one) and the
// lane images loaded into its frames.
type rootCounter struct {
	e     *vexec.Exec
	roots []int
	loads []int
	got   []int64
	oks   []bool
}

func newRootCounter(n int, m shmem.Model) *rootCounter {
	rc := &rootCounter{roots: make([]int, n), loads: make([]int, n), got: make([]int64, n), oks: make([]bool, n)}
	var reg shmem.Reg
	rc.e = vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame {
		rc.roots[p.ID()]++
		return vexec.Capture(&laneFrame{reg: &reg, loads: &rc.loads[p.ID()]}, &rc.got[p.ID()], &rc.oks[p.ID()])
	})
	if !m.Atomic() {
		rc.e.SetModel(m)
	}
	rc.e.EnableState()
	return rc
}

// restore rewinds to snap and returns the lanes whose images the Restore
// loaded, after checking the engine landed exactly on the captured decision
// point, built no root, and loaded at most one image per lane.
func (rc *rootCounter) restore(t *testing.T, snap vexecState) []int {
	t.Helper()
	clear(rc.roots)
	clear(rc.loads)
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
	var copied []int
	for pid := range rc.roots {
		if rc.roots[pid] != 0 {
			t.Fatalf("restore built %d roots for lane %d, want none (lanes are restored by copy)", rc.roots[pid], pid)
		}
		switch rc.loads[pid] {
		case 0:
		case 1:
			copied = append(copied, pid)
		default:
			t.Fatalf("restore loaded %d images into lane %d, want at most one", rc.loads[pid], pid)
		}
	}
	return copied
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

// TestRestoreCopiesOnlyMovedLanes pins Restore's cost to what changed: it
// builds no root and re-runs no access, a lane standing at its captured
// position keeps its frames, posted intent and outcome slot, and only a lane
// some decision since the capture moved — granted, crashed or restarted —
// gets its lane image written back.
func TestRestoreCopiesOnlyMovedLanes(t *testing.T) {
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
			t.Fatalf("restore one grant back copied lanes %v, want exactly the granted lane [2]", got)
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
			t.Fatalf("restore after the excursion copied lanes %v, want the moved lanes [2 3]", got)
		}
		if rc.got[0] != want0 || rc.oks[0] != wantOK0 {
			t.Fatalf("finished lane's outcome slot (%d, %v) after restore, want (%d, %v)", rc.got[0], rc.oks[0], want0, wantOK0)
		}
		if rc.got[2] != 0 || rc.oks[2] {
			t.Fatalf("restored lane 2 kept the excursion's outcome (%d, %v)", rc.got[2], rc.oks[2])
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
		// Crash, capture, then Restart, finish the new incarnation and come
		// back: lane 0 returns to its first, crashed incarnation — the root
		// the Restart replaced, with the outcome slot the new incarnation
		// filled cleared again.
		rc := newRootCounter(2, shmem.Model{Recovery: true})
		e := rc.e
		e.Step(1)
		e.Crash(0)
		snap := rc.checkpoint()
		e.Restart(0)
		for e.Step(0); !e.Done(0); e.Step(0) {
		}
		if rc.roots[0] != 2 || !rc.oks[0] || e.Proc(0).Restarts() != 1 {
			t.Fatalf("lane 0 did not finish a second incarnation: roots=%d ok=%v restarts=%d", rc.roots[0], rc.oks[0], e.Proc(0).Restarts())
		}
		if got := rc.restore(t, snap); !slices.Equal(got, []int{0}) {
			t.Fatalf("restore across a restart copied lanes %v, want the restarted lane [0]", got)
		}
		if !e.Crashed(0) || rc.got[0] != 0 || rc.oks[0] {
			t.Fatalf("lane 0 after restore: crashed=%v outcome (%d, %v); want crashed with a clear slot", e.Crashed(0), rc.got[0], rc.oks[0])
		}
		if e.Proc(0).Restarts() != 0 || e.Restarts() != 0 {
			t.Fatalf("restart counts after restore: lane %d, engine %d; want 0", e.Proc(0).Restarts(), e.Restarts())
		}

		// Restart and crash again before a step: lane 0 is back in the
		// crashed phase at the captured step count and only its incarnation
		// differs. It moved all the same.
		e.Restart(0)
		e.Crash(0)
		if got := rc.restore(t, snap); !slices.Equal(got, []int{0}) {
			t.Fatalf("restore across a restart-and-crash copied lanes %v, want the restarted lane [0]", got)
		}
		if e.Proc(0).Restarts() != 0 || e.Restarts() != 0 {
			t.Fatalf("restart counts after restore: lane %d, engine %d; want 0", e.Proc(0).Restarts(), e.Restarts())
		}
	})
}

package vexec

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// This file gives the vectorized engine first-class execution state with the
// semantics sched.Controller grew in PR 5 — Checkpoint/Restore/StateHash —
// but without the machinery the goroutine engine needs. A frame machine's
// state is plain data (register cells, lane positions, frame structs), so a
// Snapshot is a struct copy: the CellState of every registered register plus
// each lane's ProcState and phase. There is no undo log — restoring loads the
// captured states of the cells written since the capture (cells first written
// after it rewind to the pre-image taken at registration) — and no goroutine
// respawn.
//
// A lane's local state is restored by copy, not by replay. Before a lane's
// first move (grant, crash or Restart) after a checkpoint, the engine pushes
// a lane image onto the lane's log: the root of its current incarnation and
// that root's Image (which covers every frame on the stack — children are
// embedded by value or imaged by their parent), the stack slice itself, the
// posted intent and M's return cells. Restore pops, per lane, the images
// taken at or after the snapshot's decision point and loads the oldest of
// them: that is the lane exactly as it stood at the snapshot. A lane with no
// such image did not move and keeps its frames and posted intent. Nothing
// is re-rooted and no access is re-run, so a backtrack costs one struct copy
// per lane the abandoned decisions moved.

var _ sched.StateEngine = (*Exec)(nil)
var _ sched.StateReleaser = (*Exec)(nil)

// Snapshot captures the complete state of an in-flight vexec execution at a
// decision point. Unlike the goroutine engine's watermark-based snapshot it
// holds full register pre-images, so it stays valid regardless of what the
// engine does afterwards; the ancestor discipline (snapshots form a stack
// along a DFS branch) is still asserted for engine-swap parity.
//
// Snapshots are pooled: a search that is done with a capture hands it back
// via ReleaseState (sched.StateReleaser) and a later Checkpoint reuses its
// backing arrays. A deep DFS checkpoints at every node, so without reuse the
// captures dominate the walk's allocation profile.
type Snapshot struct {
	sched.StateTag

	e        *Exec
	grants   int64
	fp       uint64
	traceLen int
	restarts int

	regHash  [2]uint64
	cellsLen int               // st.cells registered at capture time
	cells    []shmem.CellState // their contents, by id

	procs []shmem.ProcState
	phase []uint8

	stale [][]int64 // pending reads' stale windows (weak registers only)
}

// Checkpoint captures the current decision point. O(registered registers + n).
func (e *Exec) Checkpoint() sched.ExecState {
	if !e.st.enabled {
		panic("vexec: Checkpoint without EnableState")
	}
	var s *Snapshot
	if n := len(e.snapFree); n > 0 {
		s = e.snapFree[n-1]
		e.snapFree[n-1] = nil
		e.snapFree = e.snapFree[:n-1]
	} else {
		s = &Snapshot{}
	}
	s.e = e
	e.st.mark = e.grants
	s.grants = e.grants
	s.fp = e.fp
	s.traceLen = len(e.traceBuf)
	s.restarts = e.restarts
	s.regHash = e.st.regHash
	s.cellsLen = len(e.st.cells)
	s.cells = grow(s.cells, len(e.st.cells))
	s.procs = grow(s.procs, e.n)
	s.phase = append(s.phase[:0], e.phase...)
	for id := range e.st.cells {
		e.st.cells[id].cell.StateInto(&s.cells[id])
	}
	for pid, p := range e.procs {
		p.StateInto(&s.procs[pid])
		s.procs[pid].Crashed = e.phase[pid] == phaseCrashed
	}
	s.stale = nil
	if e.model.Regs != shmem.RegAtomic {
		s.stale = make([][]int64, e.n)
		for pid, w := range e.staleWin {
			if len(w) > 0 {
				s.stale[pid] = append([]int64(nil), w...)
			}
		}
	}
	return s
}

// grow resizes buf to length n, reusing its backing array when it is big
// enough; new or recycled elements are overwritten by the caller.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ReleaseState hands a capture back for reuse: the next Checkpoint recycles
// its backing arrays. Only captures this engine produced are accepted, and a
// released snapshot must never be Restored again (Restore panics on one).
// Releasing is optional — unreleased snapshots are simply garbage.
func (e *Exec) ReleaseState(st sched.ExecState) {
	s, ok := st.(*Snapshot)
	if !ok || s.e != e {
		return // foreign or already-released capture: nothing to recycle
	}
	s.e = nil
	e.snapFree = append(e.snapFree, s)
}

// Restore rewinds the engine to a Snapshot taken earlier on the current
// branch: cells written since the capture load their captured states (cells
// registered since rewind to their registration pre-image), bookkeeping
// rolls back, and every lane that moved since the capture loads its lane
// image from that decision point — frames, stack, posted intent and outcome
// slot copied back, process position rewound. On return the engine is at
// the captured decision point: same pending set, same posted intents, same
// StateHash, same Fingerprint. No grant is re-executed and no root is built.
//
// A cell or lane that did not change since the capture is left alone: a
// lane with no image at or after it keeps its frame stack, posted intent and
// outcome slot and only gets its pending bit back. A backtrack of a few
// decisions thus costs the cells and lanes those decisions touched, not all
// of them.
func (e *Exec) Restore(st sched.ExecState) {
	if !e.st.enabled {
		panic("vexec: Restore without EnableState")
	}
	s, ok := st.(*Snapshot)
	if !ok {
		panic(fmt.Sprintf("vexec: Restore of a %T capture on the vectorized engine (snapshots are engine-specific)", st))
	}
	if s.e != e {
		if s.e == nil {
			panic("vexec: Restore of a released snapshot")
		}
		panic("vexec: Restore of a snapshot from a different engine")
	}
	if s.traceLen > len(e.traceBuf) || s.grants > e.grants {
		panic("vexec: Restore target is not an ancestor of the current state (snapshots form a stack)")
	}
	for id := range e.st.cells {
		rc := &e.st.cells[id]
		if rc.wrote < s.grants {
			continue // not written since the capture: already in its captured state
		}
		if id < s.cellsLen {
			rc.cell.LoadState(s.cells[id])
		} else {
			// First written after the capture: back to the contents it had
			// then (no write grant had touched it, so its registration
			// pre-image is its state at every earlier decision point).
			rc.cell.LoadState(rc.initState)
		}
		// Any write left on the branch precedes the capture.
		rc.wrote = s.grants - 1
	}
	e.st.regHash = s.regHash
	e.st.pending = pendingWrite{}
	e.st.mark = s.grants
	e.traceBuf = e.traceBuf[:s.traceLen]
	e.fp = s.fp
	e.grants = s.grants
	e.restarts = s.restarts
	if e.model.Regs != shmem.RegAtomic {
		for pid := range e.staleWin {
			e.staleWin[pid] = e.staleWin[pid][:0]
			if s.stale != nil {
				e.staleWin[pid] = append(e.staleWin[pid], s.stale[pid]...)
			}
		}
	}
	for i := range e.pbits {
		e.pbits[i] = 0
	}
	e.npending = 0
	for pid, p := range e.procs {
		log := e.st.images[pid]
		k := len(log)
		for k > 0 && log[k-1].at >= s.grants {
			k--
		}
		if k < len(log) {
			e.loadLane(pid, &log[k], s.procs[pid], s.phase[pid])
			e.st.images[pid] = log[:k]
		} else if e.phase[pid] != s.phase[pid] || !p.At(s.procs[pid]) {
			panic(fmt.Sprintf("vexec: lane %d moved since the capture but has no lane image", pid))
		}
		if e.phase[pid] == phasePending {
			e.pbits[uint(pid)>>6] |= 1 << (uint(pid) & 63)
			e.npending++
		}
	}
}

// laneImage is one lane's local state at decision point at: the root of its
// incarnation then, the root's Image, the frame stack and M's cells. The
// stack entries point into the root (children embedded by value) or into
// children the root's Image covers, so loading the root image and copying
// the stack back restores every frame the stack names.
type laneImage struct {
	at     int64 // grants executed at the decision point the image captures
	root   Frame
	img    any
	stack  []Frame
	intent shmem.Intent
	retI   int64
	retB   bool
}

// saveLane pushes lane pid's image at decision point at, unless the lane
// already has one taken since the latest checkpoint: only a lane's first
// move after a checkpoint can be the move a Restore must undo. Pushed
// entries reuse the storage of entries an earlier Restore popped.
//
// Every move of a live lane records its root first, so a crashed lane —
// whose stack the crash grant emptied — is imaged with the root of the
// incarnation it crashed in, and a restore puts that root's outcome slot
// back too.
func (e *Exec) saveLane(pid int, at int64) {
	m := &e.ms[pid]
	if len(m.stack) > 0 {
		e.st.roots[pid] = m.stack[0]
	}
	if e.st.mark < 0 {
		return // no checkpoint yet: no Restore can undo this move
	}
	log := e.st.images[pid]
	if n := len(log); n > 0 && log[n-1].at >= e.st.mark {
		return
	}
	if len(log) < cap(log) {
		log = log[:len(log)+1]
	} else {
		log = append(log, laneImage{})
	}
	im := &log[len(log)-1]
	im.at = at
	im.root = e.st.roots[pid]
	if im.root != nil {
		im.img = ImageOf(im.root, im.img, false)
	}
	im.stack = append(im.stack[:0], m.stack...)
	im.intent, im.retI, im.retB = m.intent, m.RetI, m.RetB
	e.st.images[pid] = log
}

// loadLane puts lane pid back into image im, at process position ps and
// phase phase (the snapshot's). A moved lane was pending or crashed at the
// capture — a finished or panicked lane never moves again — so its root
// result cells are clear.
func (e *Exec) loadLane(pid int, im *laneImage, ps shmem.ProcState, phase uint8) {
	e.procs[pid].Rewind(ps)
	e.phase[pid] = phase
	e.err[pid] = nil
	e.retI[pid], e.retB[pid] = 0, false
	e.st.roots[pid] = im.root
	if im.root != nil {
		ImageOf(im.root, im.img, true)
	}
	m := &e.ms[pid]
	clear(m.stack)
	m.stack = append(m.stack[:0], im.stack...)
	m.intent, m.RetI, m.RetB = im.intent, im.retI, im.retB
}

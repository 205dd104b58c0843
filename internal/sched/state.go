package sched

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/xrand"
)

// This file makes the complete condition of an in-flight driven execution a
// first-class value: Checkpoint captures it as a Snapshot, Restore rewinds
// the controller to it, and StateHash names it canonically. Together they
// replace the stateless ReplayTrace prefix re-execution at every backtrack
// point — O(depth) serialized scheduler grants, each a cross-goroutine
// handoff — with an O(writes-since-checkpoint) register rewind plus a
// handoff-free parallel catch-up of the process goroutines. The catch-up
// still re-runs each body's local computation up to its captured step count
// (goroutine stacks cannot be copied), so the asymptotic local work per
// restore matches replay; what disappears is every per-grant scheduler
// round trip and every shared-memory re-execution, which is where the
// stateless engine's wall-clock goes (see BENCH_PR5.json's parallel_drive
// section).
//
//   - Registers are rewound through an undo log: every write grant records
//     the target cell's pre-image (shmem.CellState), and restoring walks the
//     log backwards to the snapshot's watermark. No register is ever copied
//     wholesale and no grant is re-executed.
//
//   - Goroutine stacks cannot be copied, but each process's local state is a
//     pure function of the values it has read (bodies are deterministic), so
//     Restore respawns the process goroutines in catch-up mode: each re-runs
//     its body consuming its recorded read log locally — no gate handoffs,
//     no shared-memory traffic, all processes in parallel — until it has
//     retaken its captured step count, leaving it blocked (or crashed, or
//     finished) exactly as captured.
//
//   - The canonical state identity is a 128-bit pair folding the contents of
//     every register that differs from its initial value with each process's
//     read-history hash, step count and phase. Read-history hashes identify
//     local states without inspecting stacks; the differs-from-initial rule
//     makes the memory hash independent of which schedule touched which
//     registers. Hashes are canonical within one Controller (Ref registers
//     hash by never-reused write stamps), which is the scope state-hash
//     dedup operates in; across controllers they agree whenever the two
//     executed the same grant sequence over instances built from the same
//     seed and the instances use only scalar registers.
//
// State capture must be enabled (EnableState) on a pristine controller,
// before the first grant, so the undo log and read logs cover the whole
// execution. StepN batching is disallowed under state capture: checkpoints
// and traces must see every decision individually.

// stateLayer is the controller's checkpoint bookkeeping.
type stateLayer struct {
	enabled bool
	regID   map[any]int  // register -> id, in first-write-grant order
	cells   []regCell    // by id
	undo    []undoEnt    // pre-images of every write grant, in grant order
	regHash [2]uint64    // fold of contributions of registers differing from initial
	pending pendingWrite // write grant in flight between stateBeforeGrant and stateAfterGrant
}

// regCell is one registered (written-at-least-once) register.
type regCell struct {
	cell shmem.StateCell
	init uint64 // StateWord at registration: the value before any write grant
}

// undoEnt is one undo-log entry: the register's full pre-image (contents and
// version) immediately before a write grant executed.
type undoEnt struct {
	id  int
	pre shmem.CellState
}

// pendingWrite carries a write grant's identity from before the operation
// executes to after the controller requiesces, when the post-image can be
// folded into the state hash.
type pendingWrite struct {
	active  bool
	id      int
	preWord uint64
}

// Snapshot captures the complete state of an in-flight driven execution at a
// decision point: the undo-log and trace watermarks, the schedule
// fingerprint, the memory-state hash, and each process's execution position
// (step count, read-log watermark, read-history hash, phase). Snapshots are
// O(n): the logs they watermark stay on the controller.
//
// Snapshots taken along one search branch form a stack: restoring to one
// invalidates every snapshot taken after it (their watermarks point into
// truncated logs). That is exactly the discipline of depth-first search,
// the intended consumer.
type Snapshot struct {
	c        *Controller
	undoLen  int
	traceLen int
	grants   int64
	fp       uint64
	regHash  [2]uint64
	procs    []shmem.ProcState

	// Fault-model state (zero under the default model): the restart budget
	// consumed so far and the pending reads' stale windows at capture time.
	restarts int
	stale    [][]int64
}

// execState marks Snapshot as this engine's ExecState representation.
func (Snapshot) execState() {}

// EnableState turns on state capture: read logging on every process, write
// pre-image capture on every grant, and incremental state hashing. It must
// be called on a pristine controller (no grants yet) so the logs cover the
// whole execution, and it rules out StepN batching for the controller's
// lifetime. It also enables grant tracing: checkpoint users always want the
// trace, and Restore must know how much of it to rewind.
func (c *Controller) EnableState() {
	if c.grants != 0 {
		panic("sched: EnableState after grants were issued")
	}
	if c.st.enabled {
		return
	}
	c.st.enabled = true
	c.st.regID = make(map[any]int)
	if !c.tracing {
		c.EnableTrace()
	}
	for _, p := range c.procs {
		p.EnableReadLog()
	}
}

// StateEnabled reports whether state capture is on.
func (c *Controller) StateEnabled() bool { return c.st.enabled }

// stateBeforeGrant runs under state capture just before a grant executes:
// it registers write targets on first touch and pushes the pre-image onto
// the undo log. Crashes touch no memory and need no entry.
func (c *Controller) stateBeforeGrant(pid int, k int, crash bool) {
	if k != 1 {
		panic("sched: StepN batching is not allowed under EnableState (checkpoints must see every decision)")
	}
	if crash {
		return
	}
	in := c.intent[pid]
	if in.Kind != shmem.OpWrite {
		return
	}
	cell, ok := in.Reg.(shmem.StateCell)
	if !ok {
		panic(fmt.Sprintf("sched: register %T does not implement shmem.StateCell", in.Reg))
	}
	id, seen := c.st.regID[in.Reg]
	if !seen {
		id = len(c.st.cells)
		c.st.regID[in.Reg] = id
		// No write grant has touched the cell yet, so its current word is its
		// initial value — the baseline the hash contribution diffs against.
		c.st.cells = append(c.st.cells, regCell{cell: cell, init: cell.StateWord()})
	}
	var pre shmem.CellState
	cell.StateInto(&pre)
	c.st.undo = append(c.st.undo, undoEnt{id: id, pre: pre})
	c.st.pending = pendingWrite{active: true, id: id, preWord: cell.StateWord()}
}

// stateAfterGrant folds a completed write's post-image into the state hash.
func (c *Controller) stateAfterGrant() {
	if !c.st.pending.active {
		return
	}
	pw := c.st.pending
	c.st.pending = pendingWrite{}
	rc := &c.st.cells[pw.id]
	c.st.fold(pw.id, rc.init, pw.preWord)
	c.st.fold(pw.id, rc.init, rc.cell.StateWord())
}

// fold XORs a register's contribution into (or out of — XOR is its own
// inverse) both hash channels. A register holding its initial value
// contributes nothing, so the hash is independent of which registers a
// particular schedule happened to touch.
func (s *stateLayer) fold(id int, init, word uint64) {
	if word == init {
		return
	}
	s.regHash[0] ^= xrand.Mix(uint64(id)+1, word)
	s.regHash[1] ^= xrand.Mix(^uint64(id), word)
}

// StateHash returns the canonical 128-bit identity of the current state:
// memory (registers differing from initial) plus every process's execution
// position (read-history hash, step count, phase). Two states with equal
// hashes have — up to hash collision — identical register contents and
// identical process local states, hence identical reachable futures.
// It may only be called at a decision point (between grants).
func (c *Controller) StateHash() [2]uint64 {
	if !c.st.enabled {
		panic("sched: StateHash without EnableState")
	}
	h := c.st.regHash
	for pid, p := range c.procs {
		rh := p.ReadHash()
		pos := uint64(p.Steps())<<8 | uint64(p.Restarts())<<3 | uint64(c.phase[pid])
		h[0] = xrand.Mix(h[0]^rh[0], uint64(pid)+1) ^ pos
		h[1] = xrand.Mix(h[1]^rh[1], ^uint64(pid)) + pos
	}
	if c.model.Regs != shmem.RegAtomic {
		// Pending stale windows are part of the state: two points identical in
		// memory and local histories but with different windows offer the
		// adversary different futures. XOR-fold (order-insensitive) — a
		// window is a choice set.
		for pid := range c.staleWin {
			for _, v := range c.staleWin[pid] {
				h[0] ^= xrand.Mix(uint64(pid)+0x51ed, uint64(v))
				h[1] ^= xrand.Mix(^uint64(pid)-0x51ed, uint64(v))
			}
		}
	}
	return h
}

// Checkpoint captures the current decision point as a Snapshot. O(n).
func (c *Controller) Checkpoint() ExecState {
	if !c.st.enabled {
		panic("sched: Checkpoint without EnableState")
	}
	s := Snapshot{
		c:        c,
		undoLen:  len(c.st.undo),
		traceLen: len(c.traceBuf),
		grants:   c.grants,
		fp:       c.fp,
		regHash:  c.st.regHash,
		procs:    make([]shmem.ProcState, c.n),
		restarts: c.restarts,
	}
	for pid, p := range c.procs {
		p.StateInto(&s.procs[pid])
		s.procs[pid].Crashed = c.phase[pid] == phaseCrashed
	}
	if c.model.Regs != shmem.RegAtomic {
		s.stale = make([][]int64, c.n)
		for pid, w := range c.staleWin {
			if len(w) > 0 {
				s.stale[pid] = append([]int64(nil), w...)
			}
		}
	}
	return s
}

// Restore rewinds the controller to a Snapshot taken earlier on the current
// branch: it silently unwinds every live process goroutine, rewinds memory
// through the undo log, truncates the trace and read logs, and respawns all
// processes in catch-up replay (local recomputation from their read logs,
// concurrent across processes, no grants). On return the controller is
// quiesced at the captured decision point: same pending set, same posted
// intents, same StateHash, same Fingerprint. No scheduler grant is
// re-executed; the Replayed accounting of stateless search collapses to zero.
func (c *Controller) Restore(st ExecState) {
	if !c.st.enabled {
		panic("sched: Restore without EnableState")
	}
	s, ok := st.(Snapshot)
	if !ok {
		panic(fmt.Sprintf("sched: Restore of a %T capture on the goroutine engine (snapshots are engine-specific)", st))
	}
	if s.c != c {
		panic("sched: Restore of a snapshot from a different controller")
	}
	if s.undoLen > len(c.st.undo) || s.traceLen > len(c.traceBuf) || s.grants > c.grants {
		panic("sched: Restore target is not an ancestor of the current state (snapshots form a stack)")
	}
	c.releaseAll()
	for i := len(c.st.undo) - 1; i >= s.undoLen; i-- {
		e := c.st.undo[i]
		c.st.cells[e.id].cell.LoadState(e.pre)
	}
	// Drop the undone entries (and their CellState references, so abandoned
	// Ref snapshots become collectable).
	for i := s.undoLen; i < len(c.st.undo); i++ {
		c.st.undo[i] = undoEnt{}
	}
	c.st.undo = c.st.undo[:s.undoLen]
	c.st.regHash = s.regHash
	c.st.pending = pendingWrite{}
	c.traceBuf = c.traceBuf[:s.traceLen]
	c.fp = s.fp
	c.grants = s.grants
	c.restarts = s.restarts
	if c.model.Regs != shmem.RegAtomic {
		for pid := range c.staleWin {
			c.staleWin[pid] = c.staleWin[pid][:0]
			if s.stale != nil {
				c.staleWin[pid] = append(c.staleWin[pid], s.stale[pid]...)
			}
		}
	}
	for pid, p := range c.procs {
		p.LoadState(s.procs[pid])
		c.phase[pid] = phaseRunning
		c.err[pid] = nil
	}
	c.active.Store(int32(c.n))
	for pid := 0; pid < c.n; pid++ {
		go c.runProc(pid, c.body)
	}
	c.waitQuiesce()
}

// releaseAll silently unwinds every pending process goroutine with a crash
// grant, performing none of the bookkeeping of Crash: no trace event, no
// fingerprint fold, no undo entry. Crashed unwinds touch no memory, so the
// register state is exactly what it was at the current decision point.
func (c *Controller) releaseAll() {
	c.mu.Lock()
	released := false
	for pid := c.NextPending(-1); pid >= 0; pid = c.NextPending(pid) {
		c.phase[pid] = phaseRunning
		c.active.Add(1)
		st := &c.seats[pid]
		st.crash = true
		st.granted.Store(1)
		if st.parked.Load() {
			st.cond.Signal()
		}
		released = true
	}
	for i := range c.pbits {
		c.pbits[i] = 0
	}
	c.npending = 0
	c.mu.Unlock()
	if released {
		c.waitQuiesce()
	}
}

// Grants returns the number of scheduling decisions (grants and crashes)
// executed so far.
func (c *Controller) Grants() int64 { return c.grants }

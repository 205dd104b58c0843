package explore

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// SourceDPOR is the stateful tree search: source-set dynamic partial-order
// reduction (Abdulla, Aronis, Jonsson, Sagonas, POPL 2014) with sleep sets,
// optional exhaustive crash branching, and 128-bit state-hash dedup of
// revisited nodes, driven over one persistent controller through
// checkpoint/restore. It differs from the stateless Tree engine
// (NewSleepSet) in three dimensions:
//
//   - Backtrack points come from source sets: for a race between events e_i
//     and e_j, it schedules one *initial* of the sub-sequence leading to e_j
//     — and nothing at all when the backtrack set already contains one —
//     where classic all-pairs DPOR schedules the racer or every enabled
//     process. Fewer scheduled points, same guarantee: at least one
//     representative per Mazurkiewicz trace.
//
//   - Each node carries the engine's checkpoint (sched.ExecState);
//     backtracking restores it — registers back to the capture, processes
//     back at their captured positions (the goroutine engine replays each
//     from its read log; vexec copies back the images of the lanes that
//     moved since the node) — rather than re-executing the O(depth) prefix,
//     so Stats.Replayed is zero by construction and Stats.Restored counts
//     the restores.
//
//   - Nodes whose complete state (registers + every process's read-history
//     hash) was already exhaustively explored are cut (Stats.Deduped).
//     Soundness bookkeeping for the cut: a node is only matched against
//     closed records whose sleep set was a subset of the current one and
//     whose remaining crash budget was at least the current one, and every
//     closed record carries the register-access footprint of its subtree so
//     the races its re-exploration would have surfaced are re-applied to the
//     current prefix's backtrack sets.
//
// Like the stateless engines it pins every execution to one instance seed:
// the search is over the schedules of a single deterministic system.
type SourceDPOR struct {
	seed       uint64
	budget     int // executions (complete + partial) cap; 0 = exhaust
	maxCrashes int // crash-branching cap per execution; 0 = schedule-only
	dedup      bool

	stack     []sframe
	resumeAt  int // frame whose freshly picked choice executes next; -1 none
	abandoned bool
	table     map[[2]uint64]recSpan // state key -> its closed records in recs
	recs      []closedRec           // every closed record, chained per state
	feet      []footKey             // closed footprints, back to back
	race      RaceAnalysis
	hb        hbState     // incremental happens-before layer (RaceIncremental)
	scratch   raceScratch // from-scratch reference (RaceRebuild)
	diffSave  []uint64    // RaceDifferential: btStep snapshots across the two runs
	diffRef   []uint64
	stats     Stats

	// Live subtree footprints (dedup mode), one packed row per stack depth:
	// row d belongs to stack[d], and access footKey k is bit footBit(k).
	footN      int // population: bits per (register, kind)
	footStride int // words per row; widened geometrically as registers are interned
	footRows   []uint64
}

// sframe extends the shared tree frame with the stateful machinery: the
// node's snapshot, its state key, its sleep set as masks (for the dedup
// subset test), and the accumulated subtree footprint.
type sframe struct {
	frame
	snap          sched.ExecState
	key           [2]uint64
	sleepStep     uint64
	sleepCrash    uint64
	sleepRestart  uint64
	restartBudget int     // remaining global restarts at node entry (dedup mode)
	chosenKey     footKey // the chosen access (dedup mode, register steps only)
}

// footKey identifies one kind of register access occurring in a subtree:
// which process performed which operation on which register, packed as
// reg<<16 | kind<<8 | pid with reg the walk's dense register key
// (hbState.intern). It holds no pointer, so neither do the footprint rows
// and the closed-record table: the garbage collector never scans them.
// Crashes touch no register and commute with everything, so they never enter
// a footprint.
type footKey uint64

func newFootKey(reg int32, kind shmem.OpKind, pid int) footKey {
	return footKey(uint64(reg)<<16 | uint64(kind)<<8 | uint64(pid))
}

func (k footKey) reg() int32         { return int32(k >> 16) }
func (k footKey) kind() shmem.OpKind { return shmem.OpKind(k >> 8) }
func (k footKey) pid() int           { return int(k & 0xff) }

// footBit is k's bit in a footprint row, (reg·2 + kind−1)·n + pid: each
// register owns 2n consecutive bits, so interning a register only ever
// appends bits.
func (t *SourceDPOR) footBit(k footKey) int {
	return (int(k.reg())*2+int(k.kind())-1)*t.footN + k.pid()
}

// footKeyAt is footBit's inverse.
func (t *SourceDPOR) footKeyAt(b int) footKey {
	q := b / t.footN
	return newFootKey(int32(q>>1), shmem.OpKind(q&1+1), b%t.footN)
}

func (t *SourceDPOR) footRow(d int) []uint64 {
	return t.footRows[d*t.footStride : (d+1)*t.footStride]
}

// openFoot clears the footprint row of the frame about to be pushed at depth
// d, growing the row table geometrically when the stack outgrows it.
func (t *SourceDPOR) openFoot(d int) {
	if t.footStride == 0 {
		t.footStride = 1
	}
	if need := (d + 1) * t.footStride; len(t.footRows) < need {
		rows := make([]uint64, 2*need)
		copy(rows, t.footRows)
		t.footRows = rows
	}
	clear(t.footRow(d))
}

// addFoot records access k in depth d's footprint. A register interned past
// the current width first widens every row — doubling the stride and
// re-laying the rows, as hbState.grow does for the relation.
func (t *SourceDPOR) addFoot(d int, k footKey) {
	b := t.footBit(k)
	if b >= t.footStride*64 {
		ns := t.footStride
		for ns*64 <= b {
			ns *= 2
		}
		depth := len(t.footRows) / t.footStride
		rows := make([]uint64, depth*ns)
		for r := 0; r < depth; r++ {
			copy(rows[r*ns:], t.footRow(r))
		}
		t.footRows, t.footStride = rows, ns
	}
	rowSet(t.footRow(d), b)
}

// closedRec is one fully explored state: everything reachable from it
// (outside its sleep set, within its crash budget) has been executed and
// checked. A later visit to the same state may be cut if its obligations
// are covered — see matches. Its footprint is the window feet[foot:footEnd]
// of the walk's arena, and next chains the records of one state in closing
// order (-1 ends the chain).
type closedRec struct {
	sleepStep     uint64
	sleepCrash    uint64
	sleepRestart  uint64
	crashBudget   int32
	restartBudget int32
	foot, footEnd int32
	next          int32
}

// recSpan is a state's chain of closed records: indices into recs of the
// first and the last.
type recSpan struct{ first, last int32 }

// matches reports whether the record's coverage subsumes a revisit carrying
// the given sleep masks and remaining fault budgets: the record explored
// everything outside ITS sleep set within ITS budgets, so the revisit — which
// only owes everything outside its own, larger-or-equal sleep set within
// smaller-or-equal budgets — is covered. The restart budget matters even
// though the state hash folds per-process restart counts: two visits can
// reach the same state having spent different global budgets.
func (r *closedRec) matches(sleepStep, sleepCrash, sleepRestart uint64, crashBudget, restartBudget int) bool {
	return r.sleepStep&^sleepStep == 0 && r.sleepCrash&^sleepCrash == 0 &&
		r.sleepRestart&^sleepRestart == 0 &&
		int(r.crashBudget) >= crashBudget && int(r.restartBudget) >= restartBudget
}

// NewSourceDPOR returns the stateful source-set DPOR strategy. budget caps
// executions (complete + partial); 0 exhausts the reduced tree, at which
// point Stats().Complete reports the proof. maxCrashes enables exhaustive
// crash branching up to the cap (crash choices are never source-reduced —
// each is its own branch, as in NewSleepSet). seed pins the instance.
func NewSourceDPOR(seed uint64, budget, maxCrashes int) *SourceDPOR {
	return &SourceDPOR{
		seed:       seed,
		budget:     budget,
		maxCrashes: maxCrashes,
		dedup:      true,
		resumeAt:   -1,
		table:      make(map[[2]uint64]recSpan),
	}
}

// DisableDedup turns off state-hash dedup (for measuring its contribution;
// the search degenerates to pure source-DPOR). Returns the receiver.
func (t *SourceDPOR) DisableDedup() *SourceDPOR {
	t.dedup = false
	return t
}

// SetRaceAnalysis selects the race-analysis implementation (the zero value,
// RaceIncremental, is the default). Every mode yields the same backtrack sets
// and the same walk; RaceRebuild re-derives the relation per backtrack (the
// measured reference), RaceDifferential runs both and panics on divergence.
// Returns the receiver.
func (t *SourceDPOR) SetRaceAnalysis(m RaceAnalysis) *SourceDPOR {
	t.race = m
	return t
}

// Name implements Strategy.
func (t *SourceDPOR) Name() string { return "sourcedpor" }

// RunSeed implements Seeder: one deterministic system per search.
func (t *SourceDPOR) RunSeed(run int) uint64 { return t.seed }

// Stats implements Strategy.
func (t *SourceDPOR) Stats() Stats { return t.stats }

// Backtrack implements Strategy for interface completeness; the stateful
// drive calls BacktrackState instead.
func (t *SourceDPOR) Backtrack(tr sched.Trace, res sched.Result) bool {
	panic("explore: SourceDPOR must be driven statefully (BacktrackState)")
}

// Next implements Strategy. Unlike the stateless Tree there is no replay
// phase: the engine is already at the frontier, so Next either commits the
// choice BacktrackState just picked or opens a new node. The stateful walk
// needs the checkpoint/StateHash surface, so the engine must be a
// sched.StateEngine (both concrete engines are).
func (t *SourceDPOR) Next(eng sched.Engine) Choice {
	c := eng.(sched.StateEngine)
	if d := t.resumeAt; d >= 0 {
		t.resumeAt = -1
		t.commit(c, d)
		return t.stack[d].chosen
	}
	f := sframe{frame: frame{enabled: enabledMask(c)}}
	if len(t.stack) > 0 {
		parent := &t.stack[len(t.stack)-1]
		f.crashesBefore = parent.crashesBefore
		if parent.chosen.Crash {
			f.crashesBefore++
		}
		var buf []sleepEntry
		if d := len(t.stack); d < cap(t.stack) {
			buf = t.stack[:d+1][d].sleep
		}
		f.sleep = childSleep(c, &parent.frame, buf)
	}
	faultOpen(c, &f.frame)
	// Sleeping transitions are pre-marked done: exploring one would re-derive
	// a schedule already covered under an earlier sibling.
	for _, e := range f.sleep {
		bit := uint64(1) << uint(e.pid)
		if e.restart {
			if f.restartable&bit != 0 && f.doneRestart&bit == 0 {
				f.doneRestart |= bit
				f.sleepRestart |= bit
				t.stats.Pruned++
			}
			continue
		}
		if f.enabled&bit == 0 {
			continue
		}
		if e.crash {
			if f.doneCrash&bit == 0 {
				f.doneCrash |= bit
				f.sleepCrash |= bit
				t.stats.Pruned++
			}
		} else if f.doneStep&bit == 0 {
			f.doneStep |= bit
			f.sleepStep |= bit
			t.stats.Pruned++
		}
	}
	if t.dedup && len(t.stack) > 0 {
		key := c.StateHash()
		f.restartBudget = c.Model().MaxRestarts - c.Restarts()
		if span, ok := t.table[key]; ok {
			budget := t.maxCrashes - f.crashesBefore
			for i := span.first; i >= 0; i = t.recs[i].next {
				if t.recs[i].matches(f.sleepStep, f.sleepCrash, f.sleepRestart, budget, f.restartBudget) {
					t.coverDedup(&t.recs[i])
					t.stats.Deduped++
					t.abandoned = true
					return Abandon
				}
			}
		}
		f.key = key
	}
	// Source mode: the backtrack set starts with one arbitrary (lowest awake)
	// enabled process; race analysis grows it. Crash branching is exhaustive
	// within the budget.
	if first := f.enabled &^ f.doneStep; first != 0 {
		f.btStep = first & (-first)
	}
	if t.maxCrashes > 0 && f.crashesBefore < t.maxCrashes {
		f.btCrash = f.enabled
	}
	if !pickNext(&f.frame) {
		t.abandoned = true
		return Abandon
	}
	f.snap = c.Checkpoint()
	if t.dedup {
		if t.footN == 0 {
			t.footN = c.N()
		}
		t.openFoot(len(t.stack))
	}
	t.stack = append(t.stack, f)
	t.commit(c, len(t.stack)-1)
	return f.chosen
}

// commit finalizes the about-to-execute choice of the frame at depth d:
// refresh the posted intent (live — the controller is at the frame's
// state), record the access in the subtree footprint (dedup mode only —
// footprints exist to replay a closed subtree's race obligations at a dedup
// cut), and count the decision.
func (t *SourceDPOR) commit(c sched.Engine, d int) {
	f := &t.stack[d]
	if f.chosen.Restart || f.chosen.Pid < 0 {
		// Restarts carry no intent (the process is crashed) and Halt grants
		// nothing; neither touches a register, so no footprint entry either.
		t.stats.Explored++
		return
	}
	f.chosenIn = c.Intent(f.chosen.Pid)
	if t.dedup && !f.chosen.Crash {
		f.chosenKey = newFootKey(t.hb.intern(f.chosenIn.Reg), f.chosenIn.Kind, f.chosen.Pid)
		t.addFoot(d, f.chosenKey)
	}
	t.stats.Explored++
}

// BacktrackState implements Stateful: fold the finished execution's races
// into the backtrack sets, close and pop exhausted frames (recording their
// states in the dedup table), and restore the engine to the deepest frame
// with an unexplored scheduled choice.
func (t *SourceDPOR) BacktrackState(c sched.StateEngine, tr sched.Trace, res sched.Result) bool {
	if t.abandoned {
		t.abandoned = false
		t.stats.Partial++
	} else {
		t.stats.Executions++
	}
	t.updateRaces(tr)
	if t.budget > 0 && t.stats.Executions+t.stats.Partial >= t.budget {
		return false
	}
	releaser, _ := c.(sched.StateReleaser)
	for i := len(t.stack) - 1; i >= 0; i-- {
		f := &t.stack[i]
		if !frameOpen(&f.frame) {
			t.closeFrame(i)
			if releaser != nil {
				// The frame is fully explored: its checkpoint will never be
				// restored again, so the engine may recycle the capture.
				releaser.ReleaseState(f.snap)
			}
			f.snap = nil
			t.stack = t.stack[:i]
			continue
		}
		t.stack = t.stack[:i+1]
		c.Restore(f.snap)
		t.stats.Restored++
		if t.race != RaceRebuild {
			// Frame i's checkpoint was taken at trace length i, and Restore
			// truncated the engine's trace buffer to that watermark; rewind
			// the happens-before layer in lockstep. The TraceLen cross-check
			// ties the layer's watermark to the engine's actual cursor — a
			// frame/trace misalignment would silently corrupt the relation.
			if got := c.TraceLen(); got != i {
				panic(fmt.Sprintf("explore: engine trace holds %d events after restoring frame %d", got, i))
			}
			t.hb.truncate(i)
		}
		pickNext(&f.frame)
		t.resumeAt = i
		return true
	}
	t.stats.Complete = true
	return false
}

// closeFrame records a fully explored frame's state as closed — appending
// its footprint to the arena — and folds the footprint into its parent's.
func (t *SourceDPOR) closeFrame(i int) {
	if !t.dedup {
		return
	}
	f := &t.stack[i]
	if i > 0 {
		id := int32(len(t.recs))
		rec := closedRec{
			sleepStep:     f.sleepStep,
			sleepCrash:    f.sleepCrash,
			sleepRestart:  f.sleepRestart,
			crashBudget:   int32(t.maxCrashes - f.crashesBefore),
			restartBudget: int32(f.restartBudget),
			foot:          int32(len(t.feet)),
			next:          -1,
		}
		row := t.footRow(i)
		for w, word := range row {
			for word != 0 {
				t.feet = append(t.feet, t.footKeyAt(w<<6+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		rec.footEnd = int32(len(t.feet))
		t.recs = append(t.recs, rec)
		if span, ok := t.table[f.key]; ok {
			t.recs[span.last].next = id
			t.table[f.key] = recSpan{first: span.first, last: id}
		} else {
			t.table[f.key] = recSpan{first: id, last: id}
		}
		rowOr(t.footRow(i-1), row)
	}
}

// coverDedup re-applies a closed subtree's obligations at a dedup cut: every
// race between a prefix event and a footprint access is scheduled at the
// prefix frame (the PR-3-style over-approximation — always at least what the
// subtree's own race analysis would have added), and the footprint is
// credited to the cut point's parent so enclosing subtrees stay complete.
func (t *SourceDPOR) coverDedup(rec *closedRec) {
	foot := t.feet[rec.foot:rec.footEnd]
	for i := range t.stack {
		f := &t.stack[i]
		if f.chosen.Crash || f.chosen.Restart || f.chosen.Pid < 0 {
			continue
		}
		ck := f.chosenKey
		for _, fe := range foot {
			if fe.pid() == f.chosen.Pid {
				continue
			}
			if ck.reg() != fe.reg() || (ck.kind() == shmem.OpRead && fe.kind() == shmem.OpRead) {
				continue // commuting accesses: no race
			}
			if bit := uint64(1) << uint(fe.pid()); f.enabled&bit != 0 {
				f.btStep |= bit
			} else {
				f.btStep |= f.enabled
			}
		}
	}
	top := len(t.stack) - 1
	for _, fe := range foot {
		t.addFoot(top, fe)
	}
}

// raceScratch holds the per-execution race-analysis buffers, reused across
// executions so the hot search loop stays allocation-light.
type raceScratch struct {
	regKey  map[any]int32 // register identity -> dense key for this trace
	keys    []int32       // per event: register key (-1 for crashes)
	writes  []bool        // per event: the access was a write
	hb      []uint64      // L x words bitset: hb[j] = events happening-before j
	covered []uint64      // scratch row: union of hb[m] over m in hb[j]
	words   int
}

// growClear resizes buf to length n with every element zeroed, reusing the
// backing array when it is big enough — the allocation-free replacement for
// the append(buf[:0], make([]T, n)...) idiom, which allocates the zero slice
// it copies from on every call.
func growClear[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// bit helpers over packed rows of width s.words.
func (s *raceScratch) row(r []uint64, j int) []uint64 { return r[j*s.words : (j+1)*s.words] }

// raceScratch implements hbRel so the shared race scan runs over either the
// from-scratch relation or the incremental layer.
func (s *raceScratch) eventRow(j int) []uint64 { return s.row(s.hb, j) }
func (s *raceScratch) coveredRow() []uint64    { return s.covered[:s.words] }

func rowGet(row []uint64, i int) bool { return row[i>>6]&(1<<(uint(i)&63)) != 0 }
func rowSet(row []uint64, i int)      { row[i>>6] |= 1 << (uint(i) & 63) }
func rowOr(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

// prepare digests a trace: dense register keys (interface comparisons are
// the profile's hot spot — one map lookup per event replaces O(L²) of them)
// and the happens-before relation as bitsets, computed by one transitive
// pass over direct dependences (same process, or non-commuting accesses).
func (s *raceScratch) prepare(tr sched.Trace) {
	L := len(tr)
	if s.regKey == nil {
		s.regKey = make(map[any]int32)
	}
	clear(s.regKey)
	s.keys = growClear(s.keys, L)
	s.writes = growClear(s.writes, L)
	for j, e := range tr {
		if e.Crash || e.Restart {
			s.keys[j] = -1
			continue
		}
		k, ok := s.regKey[e.Reg]
		if !ok {
			k = int32(len(s.regKey))
			s.regKey[e.Reg] = k
		}
		s.keys[j] = k
		s.writes[j] = e.Op == shmem.OpWrite
	}
	s.words = (L + 63) / 64
	s.hb = growClear(s.hb, L*s.words)
	s.covered = growClear(s.covered, s.words)
	for j := 1; j < L; j++ {
		hbj := s.row(s.hb, j)
		for m := 0; m < j; m++ {
			if s.depends(tr, m, j) {
				rowOr(hbj, s.row(s.hb, m))
				rowSet(hbj, m)
			}
		}
	}
}

// depends reports a direct dependence edge m -> k: same process (program
// order), or accesses to the same register that are not both reads. Crashes
// touch no register and depend only on their own process.
func (s *raceScratch) depends(tr sched.Trace, m, k int) bool {
	if tr[m].Pid == tr[k].Pid {
		return true
	}
	if s.keys[m] < 0 || s.keys[k] < 0 {
		return false
	}
	return s.keys[m] == s.keys[k] && (s.writes[m] || s.writes[k])
}

// updateRaces grows backtrack sets from the executed trace with source sets,
// dispatching to the configured race-analysis implementation (see
// RaceAnalysis) and accounting the work: RaceEvents counts the
// happens-before rows derived — the whole trace per leaf for the rebuild
// reference, only the new suffix for the incremental layer.
func (t *SourceDPOR) updateRaces(tr sched.Trace) {
	L := len(tr)
	// The trace can never outrun the frame stack: Next pushes exactly one
	// frame per node it opens, every dispatched choice (step, stale variant,
	// crash, restart) appends exactly one trace event against that node's
	// frame, and the two choices that append nothing (Halt, and the Abandon
	// of a dedup cut or sleep-blocked node) push no frame or leave theirs
	// undispatched on top. So len(stack) >= L always — the stack runs one
	// PAST the trace when the top frame's choice was Halt. The former clamp
	// here (L = min(L, len(stack))) guarded the impossible direction by
	// silently dropping trailing events from race analysis; make any future
	// regression loud instead. Pinned by TestTraceNeverOutrunsStack.
	if L > len(t.stack) {
		panic(fmt.Sprintf("explore: trace (%d events) outran the frame stack (%d frames)", L, len(t.stack)))
	}
	start := time.Now()
	switch t.race {
	case RaceRebuild:
		if L >= 2 {
			t.scratch.prepare(tr)
			t.stats.RaceEvents += L
			t.scanRaces(tr, &t.scratch, 1, L)
		}
	case RaceDifferential:
		t.updateRacesDiff(tr)
	default:
		watermark := t.hb.n
		t.hb.extend(tr)
		t.stats.RaceEvents += L - watermark
		t.scanRaces(tr, &t.hb, watermark, L)
	}
	t.stats.RaceNs += time.Since(start).Nanoseconds()
}

// updateRacesDiff is the RaceDifferential body: run the from-scratch
// reference against the current backtrack sets, capture what it produced,
// rewind, run the incremental layer for real, and require bit-identical
// backtrack sets and bit-identical relation rows. The rebuild pass also
// re-analyzes every pair below the incremental watermark — asserting, on
// every backtrack of every fuzzed walk, that re-analysis is the no-op the
// incremental mode's suffix skip claims it is.
func (t *SourceDPOR) updateRacesDiff(tr sched.Trace) {
	L := len(tr)
	t.diffSave = growClear(t.diffSave, L)
	for i := 0; i < L; i++ {
		t.diffSave[i] = t.stack[i].btStep
	}
	if L >= 2 {
		t.scratch.prepare(tr)
		t.scanRaces(tr, &t.scratch, 1, L)
	}
	t.diffRef = growClear(t.diffRef, L)
	for i := 0; i < L; i++ {
		t.diffRef[i] = t.stack[i].btStep
		t.stack[i].btStep = t.diffSave[i]
	}
	watermark := t.hb.n
	t.hb.extend(tr)
	t.stats.RaceEvents += L - watermark
	t.scanRaces(tr, &t.hb, watermark, L)
	for i := 0; i < L; i++ {
		if t.stack[i].btStep != t.diffRef[i] {
			panic(fmt.Sprintf("explore: race-analysis divergence at frame %d: incremental btStep %b, rebuild %b (watermark %d, trace %d)",
				i, t.stack[i].btStep, t.diffRef[i], watermark, L))
		}
	}
	if L >= 2 {
		for j := 0; j < L; j++ {
			inc, ref := t.hb.eventRow(j), t.scratch.row(t.scratch.hb, j)
			for i := 0; i < L; i++ {
				if rowGet(inc, i) != rowGet(ref, i) {
					panic(fmt.Sprintf("explore: happens-before divergence at pair (%d, %d): incremental %v, rebuild %v",
						i, j, rowGet(inc, i), rowGet(ref, i)))
				}
			}
		}
	}
}

// scanRaces finds the races among the trace's direct (Hasse) happens-before
// edges and feeds each to addSource. A race is a DIRECT edge between events
// of different processes: i in hb[j] but not covered by any intermediate
// event of hb[j] (non-direct dependent pairs are reached inductively through
// the direct ones — the classic DPOR race relation). Only pairs whose later
// event j lies in [from, L) are scanned: the caller passes 0 (or 1 — event 0
// has no predecessors) to scan a whole trace, or the incremental watermark to
// scan just the suffix the last call has not seen.
func (t *SourceDPOR) scanRaces(tr sched.Trace, rel hbRel, from, L int) {
	if from < 1 {
		from = 1
	}
	for j := from; j < L; j++ {
		if tr[j].Crash || tr[j].Restart {
			continue // crashes and restarts commute with every other-process event
		}
		hbj := rel.eventRow(j)
		cov := rel.coveredRow()
		clear(cov)
		for w, word := range hbj {
			for word != 0 {
				m := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				rowOr(cov, rel.eventRow(m))
			}
		}
		for w := range hbj {
			direct := hbj[w] &^ cov[w]
			for direct != 0 {
				i := w<<6 + bits.TrailingZeros64(direct)
				direct &= direct - 1
				if tr[i].Pid != tr[j].Pid && !tr[i].Crash && !tr[i].Restart {
					t.addSource(i, j, tr, rel)
				}
			}
		}
	}
}

// addSource schedules one weak initial of v = notdep(i, tr)·tr[j] at frame
// i. Events happening-after tr[i] are not in v — except tr[j] itself, which
// is in v by construction.
func (t *SourceDPOR) addSource(i, j int, tr sched.Trace, rel hbRel) {
	f := &t.stack[i]
	inV := func(k int) bool { return k == j || !rowGet(rel.eventRow(k), i) }
	var initials uint64
	for k := i + 1; k <= j; k++ {
		if !inV(k) {
			continue
		}
		// k is an initial of v iff no v-predecessor depends on it. Direct
		// dependence suffices: a transitive chain into k has a direct last
		// link, which cannot leave v (events outside v happen-after e_i, and
		// anything after them would too).
		first := true
		for m := i + 1; m < k; m++ {
			if inV(m) && rel.depends(tr, m, k) {
				first = false
				break
			}
		}
		if first {
			initials |= 1 << uint(tr[k].Pid)
		}
	}
	if initials == 0 {
		panic(fmt.Sprintf("explore: race (%d,%d) with empty initials", i, j))
	}
	if (f.btStep|f.doneStep)&initials != 0 {
		// An initial is already scheduled or explored: race covered. This
		// includes an initial mid-way through pickNext's stale-variant loop —
		// such a pid sits in btStep with doneStep clear until its last
		// variant, and scheduling the pid explores every variant, so the
		// race's source-set obligation (some initial scheduled at this node)
		// is met without a second bit.
		return
	}
	if en := initials & f.enabled; en != 0 {
		f.btStep |= en & (-en)
	} else {
		// No initial is enabled at the node: fall back to scheduling every
		// enabled process — the sound over-approximation the stateless
		// engine always uses. This branch cannot fire while an initial is
		// done or mid-variant-loop: btStep and doneStep only ever hold
		// enabled pids, so an empty initials∩enabled implies the covered
		// check above already saw nothing. A disabled initial itself is only
		// reachable under the recovery model (the pid was crashed at this
		// node and restarted before its contribution to v) — pinned by
		// TestSourceDPORWeakInitials{Stale,Recovery}.
		f.btStep |= f.enabled
	}
}

// pickNext selects the next unexplored scheduled transition of f (steps
// before crashes, then halt, then restarts; ascending pid), marks it done,
// and installs it as f.chosen. A step whose pending read has stale variants
// (frame.staleN) is picked repeatedly — fresh first, then each stale choice —
// and only its last variant marks the pid done. Shared with the stateless
// Tree engine.
func pickNext(f *frame) bool {
	if avail := f.btStep &^ f.doneStep; avail != 0 {
		pid := bits.TrailingZeros64(avail)
		if f.staleN == nil || f.staleN[pid] == 0 {
			f.doneStep |= 1 << uint(pid)
			f.chosen = Choice{Pid: pid}
			return true
		}
		v := int(f.varCur[pid])
		f.varCur[pid]++
		if int(f.varCur[pid]) > int(f.staleN[pid]) {
			f.doneStep |= 1 << uint(pid)
		}
		f.chosen = Choice{Pid: pid, Stale: v}
		return true
	}
	if avail := f.btCrash &^ f.doneCrash; avail != 0 {
		pid := bits.TrailingZeros64(avail)
		f.doneCrash |= 1 << uint(pid)
		f.chosen = Choice{Pid: pid, Crash: true}
		return true
	}
	if f.haltBt && !f.haltDone {
		f.haltDone = true
		f.chosen = Halt
		return true
	}
	if avail := f.btRestart &^ f.doneRestart; avail != 0 {
		pid := bits.TrailingZeros64(avail)
		f.doneRestart |= 1 << uint(pid)
		f.chosen = Choice{Pid: pid, Restart: true}
		return true
	}
	return false
}

// frameOpen reports whether f still has an unexplored scheduled choice.
func frameOpen(f *frame) bool {
	if (f.btStep&^f.doneStep)|(f.btCrash&^f.doneCrash)|(f.btRestart&^f.doneRestart) != 0 {
		return true
	}
	return f.haltBt && !f.haltDone
}

// faultOpen seeds a frame's fault-model branching from the live engine:
// the restartable mask (scheduled exhaustively, like crashes), the Halt
// branch of pending-free nodes, and the stale-variant counts of every
// enabled pending read. No-op under the default model.
func faultOpen(c sched.Engine, f *frame) {
	m := c.Model()
	if m.Recovery {
		f.restartable = restartableMask(c)
		f.btRestart = f.restartable
		if f.enabled == 0 && f.restartable != 0 {
			f.haltBt = true
		}
	}
	if m.Regs != shmem.RegAtomic && f.enabled != 0 {
		f.staleN = make([]uint8, c.N())
		f.varCur = make([]uint8, c.N())
		for e := f.enabled; e != 0; e &= e - 1 {
			pid := bits.TrailingZeros64(e)
			if k := c.StaleCount(pid); k > 0 {
				if k > 255 {
					k = 255
				}
				f.staleN[pid] = uint8(k)
			}
		}
	}
}

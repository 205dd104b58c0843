// Long-lived invariant checking. The one-shot checkers in check.go judge a
// finished execution by its final state; a long-lived renaming service has no
// final state — names are issued, released, and reissued forever. Its
// invariants are properties of the *event history*:
//
//   - live exclusivity: at every prefix of the history, each name has at
//     most one live holder;
//   - no leak: when a generation's registers are recycled, every name it
//     issued has been released or reclaimed — nothing live points into the
//     registers being rewound;
//   - epoch monotonicity: a shard's generation epochs strictly increase, so
//     a reused (shard, local) pair is globally distinguishable across time;
//   - reclaim-once: a crashed session's lease is reclaimed exactly once,
//     and only for sessions that actually joined and neither released nor
//     failed out.
//
// LLVerifier checks all four incrementally, one event at a time, so the
// service's audit mode can run it online (panicking on the violating event,
// which the model checker surfaces with the schedule that produced it) and
// the checkers below can run it over a recorded history.
package check

import "fmt"

// LLOp enumerates long-lived service events.
type LLOp uint8

const (
	// LLOpen: a generation opened under Epoch on Shard.
	LLOpen LLOp = iota
	// LLJoin: session Sid joined (Shard, Epoch) at contender Slot.
	LLJoin
	// LLIssue: session Sid acquired packed name Name after Steps local steps.
	LLIssue
	// LLRelease: session Sid released its name and departed.
	LLRelease
	// LLFail: session Sid departed without a name (acquire failed).
	LLFail
	// LLReclaim: a crashed Sid's attachment was reclaimed; Held reports
	// whether it held a name at the crash.
	LLReclaim
	// LLRecycle: generation (Shard, Epoch) was recycled at quiescence.
	LLRecycle
)

func (op LLOp) String() string {
	switch op {
	case LLOpen:
		return "open"
	case LLJoin:
		return "join"
	case LLIssue:
		return "issue"
	case LLRelease:
		return "release"
	case LLFail:
		return "fail"
	case LLReclaim:
		return "reclaim"
	case LLRecycle:
		return "recycle"
	}
	return fmt.Sprintf("LLOp(%d)", uint8(op))
}

// LLEvent is one entry of a long-lived service history.
type LLEvent struct {
	Op    LLOp
	Shard int
	Epoch uint64
	Slot  int
	Sid   int64 // session identity (unique per session, service-wide)
	Name  int64 // packed name (LLIssue)
	Held  bool  // LLReclaim: session held a name at the crash
	Steps int64 // LLIssue: local steps spent acquiring
}

func (e LLEvent) String() string {
	switch e.Op {
	case LLOpen, LLRecycle:
		return fmt.Sprintf("%s shard=%d epoch=%d", e.Op, e.Shard, e.Epoch)
	case LLIssue:
		return fmt.Sprintf("issue sid=%d name=%#x steps=%d", e.Sid, e.Name, e.Steps)
	case LLReclaim:
		return fmt.Sprintf("reclaim sid=%d held=%v", e.Sid, e.Held)
	default:
		return fmt.Sprintf("%s sid=%d shard=%d epoch=%d slot=%d", e.Op, e.Sid, e.Shard, e.Epoch, e.Slot)
	}
}

// LLRecord is a complete recorded history of a long-lived service execution,
// in the form the long-lived checkers consume.
type LLRecord struct {
	Events []LLEvent
}

// llSession is the verifier's view of one session's lifecycle.
type llSession struct {
	shard    int
	epoch    uint64
	name     int64 // packed; 0 while not holding
	departed bool
}

// LLVerifier checks the long-lived invariants incrementally. The zero value
// is ready to use.
type LLVerifier struct {
	epochs   map[int]uint64       // shard -> last opened epoch
	live     map[int64]int64      // packed name -> holder sid
	sessions map[int64]*llSession // sid -> lifecycle
	genLive  map[[2]uint64]int    // (shard, epoch) -> live names issued by that generation
	recycled map[[2]uint64]bool   // (shard, epoch) -> recycled
}

func (v *LLVerifier) init() {
	if v.epochs == nil {
		v.epochs = make(map[int]uint64)
		v.live = make(map[int64]int64)
		v.sessions = make(map[int64]*llSession)
		v.genLive = make(map[[2]uint64]int)
		v.recycled = make(map[[2]uint64]bool)
	}
}

func genKey(shard int, epoch uint64) [2]uint64 { return [2]uint64{uint64(shard), epoch} }

// Apply folds one event into the verifier, returning a non-nil error naming
// the violated invariant if the event is inconsistent with the history so
// far.
func (v *LLVerifier) Apply(e LLEvent) error {
	v.init()
	switch e.Op {
	case LLOpen:
		if last, ok := v.epochs[e.Shard]; ok && e.Epoch <= last {
			return fmt.Errorf("epoch-monotone: shard %d opened epoch %d after %d", e.Shard, e.Epoch, last)
		}
		v.epochs[e.Shard] = e.Epoch
		if v.recycled[genKey(e.Shard, e.Epoch)] {
			return fmt.Errorf("epoch-monotone: shard %d reopened recycled epoch %d", e.Shard, e.Epoch)
		}
	case LLJoin:
		if s, ok := v.sessions[e.Sid]; ok && !s.departed {
			return fmt.Errorf("lifecycle: sid %d joined twice without departing", e.Sid)
		}
		if v.recycled[genKey(e.Shard, e.Epoch)] {
			return fmt.Errorf("no-leak: sid %d joined recycled generation (shard %d epoch %d)", e.Sid, e.Shard, e.Epoch)
		}
		v.sessions[e.Sid] = &llSession{shard: e.Shard, epoch: e.Epoch}
	case LLIssue:
		s := v.sessions[e.Sid]
		if s == nil || s.departed {
			return fmt.Errorf("lifecycle: sid %d issued a name while not attached", e.Sid)
		}
		if s.name != 0 {
			return fmt.Errorf("lifecycle: sid %d issued a second name %#x while holding %#x", e.Sid, e.Name, s.name)
		}
		if holder, ok := v.live[e.Name]; ok {
			return fmt.Errorf("live-exclusive: name %#x issued to sid %d while held by sid %d", e.Name, e.Sid, holder)
		}
		s.name = e.Name
		v.live[e.Name] = e.Sid
		v.genLive[genKey(s.shard, s.epoch)]++
	case LLRelease:
		s := v.sessions[e.Sid]
		if s == nil || s.departed {
			return fmt.Errorf("lifecycle: sid %d released while not attached", e.Sid)
		}
		if s.name == 0 {
			return fmt.Errorf("lifecycle: sid %d released without holding a name", e.Sid)
		}
		v.dropName(s)
		s.departed = true
	case LLFail:
		s := v.sessions[e.Sid]
		if s == nil || s.departed {
			return fmt.Errorf("lifecycle: sid %d failed out while not attached", e.Sid)
		}
		if s.name != 0 {
			return fmt.Errorf("lifecycle: sid %d departed as failed while holding %#x", e.Sid, s.name)
		}
		s.departed = true
	case LLReclaim:
		s := v.sessions[e.Sid]
		if s == nil {
			return fmt.Errorf("reclaim-once: sid %d reclaimed but never joined", e.Sid)
		}
		if s.departed {
			return fmt.Errorf("reclaim-once: sid %d reclaimed after departing (double reclaim or reclaim of a released session)", e.Sid)
		}
		if e.Held != (s.name != 0) {
			return fmt.Errorf("reclaim-once: sid %d reclaimed with held=%v but holds name %#x", e.Sid, e.Held, s.name)
		}
		if s.name != 0 {
			v.dropName(s)
		}
		s.departed = true
	case LLRecycle:
		k := genKey(e.Shard, e.Epoch)
		if v.recycled[k] {
			return fmt.Errorf("no-leak: generation (shard %d epoch %d) recycled twice", e.Shard, e.Epoch)
		}
		if n := v.genLive[k]; n != 0 {
			return fmt.Errorf("no-leak: generation (shard %d epoch %d) recycled with %d live name(s)", e.Shard, e.Epoch, n)
		}
		v.recycled[k] = true
	default:
		return fmt.Errorf("unknown event op %d", e.Op)
	}
	return nil
}

func (v *LLVerifier) dropName(s *llSession) {
	delete(v.live, s.name)
	v.genLive[genKey(s.shard, s.epoch)]--
	s.name = 0
}

// LiveNames returns how many names are live (issued and neither released nor
// reclaimed) at the current point of the history.
func (v *LLVerifier) LiveNames() int { return len(v.live) }

// LLChecker judges a recorded long-lived history.
type LLChecker struct {
	Name string
	Fn   func(r *LLRecord) error
}

// verify replays a record through a fresh LLVerifier, tagging any violation
// with the event index; only errors matching keep are reported (empty keep
// means all).
func llVerify(r *LLRecord, keep string) error {
	var v LLVerifier
	for i, e := range r.Events {
		if err := v.Apply(e); err != nil {
			if keep != "" && !matchInvariant(err, keep) {
				// A different invariant broke first; this checker stays
				// silent and lets its sibling report it.
				return nil
			}
			return fmt.Errorf("event %d (%s): %w", i, e, err)
		}
	}
	return nil
}

func matchInvariant(err error, prefix string) bool {
	s := err.Error()
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// LLExclusive checks live exclusivity: no name ever has two live holders.
func LLExclusive() LLChecker {
	return LLChecker{Name: "ll-exclusive", Fn: func(r *LLRecord) error {
		return llVerify(r, "live-exclusive")
	}}
}

// LLNoLeak checks that recycling never rewinds registers under a live name.
func LLNoLeak() LLChecker {
	return LLChecker{Name: "ll-no-leak", Fn: func(r *LLRecord) error {
		return llVerify(r, "no-leak")
	}}
}

// LLEpochMono checks per-shard strict epoch growth.
func LLEpochMono() LLChecker {
	return LLChecker{Name: "ll-epoch-mono", Fn: func(r *LLRecord) error {
		return llVerify(r, "epoch-monotone")
	}}
}

// LLReclaimOnce checks that crashed leases are reclaimed exactly once and
// only for attached sessions.
func LLReclaimOnce() LLChecker {
	return LLChecker{Name: "ll-reclaim-once", Fn: func(r *LLRecord) error {
		return llVerify(r, "reclaim-once")
	}}
}

// LLLifecycle checks session lifecycle sanity (join/issue/depart ordering).
func LLLifecycle() LLChecker {
	return LLChecker{Name: "ll-lifecycle", Fn: func(r *LLRecord) error {
		return llVerify(r, "lifecycle")
	}}
}

// LLAll is the full long-lived suite.
func LLAll() []LLChecker {
	return []LLChecker{LLExclusive(), LLNoLeak(), LLEpochMono(), LLReclaimOnce(), LLLifecycle()}
}

// LLCheckAll runs the whole suite, returning the first failure.
func LLCheckAll(r *LLRecord) error {
	// One strict pass first: any violation at all is a failure, and the
	// per-invariant checkers exist to classify it.
	var v LLVerifier
	for i, e := range r.Events {
		if err := v.Apply(e); err != nil {
			return fmt.Errorf("event %d (%s): %w", i, e, err)
		}
	}
	return nil
}

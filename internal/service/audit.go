package service

import (
	"fmt"

	"repro/internal/check"
)

// audit is the service's online invariant monitor (Config.Audit): every
// bookkeeping transition is appended to a history and folded into the
// incremental long-lived verifier; an inconsistent transition panics at the
// mutating step. Under the engines a bookkeeping panic is a process panic,
// which the model checker converts into a Violation carrying the schedule —
// the same surfacing path the one-shot panic audits use.
type audit struct {
	v   check.LLVerifier
	rec check.LLRecord
}

func newAudit() *audit { return &audit{} }

func (a *audit) apply(e check.LLEvent) {
	a.rec.Events = append(a.rec.Events, e)
	if err := a.v.Apply(e); err != nil {
		panic(fmt.Sprintf("service audit: %v", err))
	}
}

func (a *audit) open(shard int, epoch uint64) {
	a.apply(check.LLEvent{Op: check.LLOpen, Shard: shard, Epoch: epoch})
}

func (a *audit) join(shard int, epoch uint64, slot int, sid int64) {
	a.apply(check.LLEvent{Op: check.LLJoin, Shard: shard, Epoch: epoch, Slot: slot, Sid: sid})
}

func (a *audit) issue(nm Name, sid int64, slot int, steps int64) {
	a.apply(check.LLEvent{Op: check.LLIssue, Shard: nm.Shard, Epoch: nm.Epoch, Slot: slot, Sid: sid, Name: nm.Int(), Steps: steps})
}

func (a *audit) depart(shard int, epoch uint64, slot int, sid int64, released bool) {
	op := check.LLFail
	if released {
		op = check.LLRelease
	}
	a.apply(check.LLEvent{Op: op, Shard: shard, Epoch: epoch, Slot: slot, Sid: sid})
}

func (a *audit) reclaim(shard int, epoch uint64, slot int, sid int64, held bool) {
	a.apply(check.LLEvent{Op: check.LLReclaim, Shard: shard, Epoch: epoch, Slot: slot, Sid: sid, Held: held})
}

func (a *audit) recycle(shard int, epoch uint64) {
	a.apply(check.LLEvent{Op: check.LLRecycle, Shard: shard, Epoch: epoch})
}

// Record returns the audited history (nil when Config.Audit is off), in the
// form the long-lived checkers in internal/check consume. The returned
// pointer aliases live state: read it only after driving has stopped.
func (s *Service) Record() *check.LLRecord {
	if s.audit == nil {
		return nil
	}
	return &s.audit.rec
}

// LiveNames reports how many names are currently live according to the audit
// (audit mode only; -1 otherwise).
func (s *Service) LiveNames() int {
	if s.audit == nil {
		return -1
	}
	return s.audit.v.LiveNames()
}

package compete

import "repro/internal/shmem"

// FirstFit is the minimal renamer over a competition field: scan the pairs in
// index order, run the Figure 1 procedure on each, and take the index of the
// first pair won as the new name. It is deliberately the unbalanced
// structure the paper's algorithms avoid — every contender starts on pair 0,
// so register contention is guaranteed rather than expander-diluted. That
// makes it the conformance table's fault-model showcase: the smallest system
// whose model-checking cells are non-vacuous under weak registers (the
// Section 3 algorithms' small-population instances place contenders on
// disjoint neighborhoods, so their weak-register trees collapse to the atomic
// ones).
//
// Guarantees (Lemma 1 lifted to the scan): wins are exclusive, so acquired
// names are distinct; a contender that wins no pair returns ok=false — under
// contention the adversary can burn every pair (interleave two contenders so
// both lose it), so no liveness claim is made beyond full accounting.
type FirstFit struct {
	field *Field
}

// NewFirstFit builds a first-fit renamer over m fresh pairs.
func NewFirstFit(m int) *FirstFit { return &FirstFit{field: NewField(m)} }

// Rename scans for the first winnable pair. orig must be non-Null and unique
// among contenders.
func (ff *FirstFit) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	for i := 0; i < ff.field.Len(); i++ {
		if Compete(p, ff.field.Pair(i), orig) {
			return int64(i + 1), true
		}
	}
	return 0, false
}

// MaxName returns the largest name the scan can assign (the field length).
func (ff *FirstFit) MaxName() int64 { return int64(ff.field.Len()) }

// Registers returns the number of shared registers the field occupies.
func (ff *FirstFit) Registers() int { return ff.field.Registers() }

// Recycle rewinds the instance to its freshly constructed state (all pairs
// Null) without reallocating. Harness-level: callers must guarantee no
// process is mid-scan — the long-lived service recycles an instance only
// once its generation is quiescent. Registers the generation never wrote
// are skipped and keep their version counters (see Field.Reset).
func (ff *FirstFit) Recycle() { ff.field.Reset() }

// Package compete implements the register-competition procedure of the
// paper's Figure 1 ("Compete-For-Register"). A competition object is a pair
// of shared registers (R, HR), where HR is a placeholder holding a
// reservation for R. The procedure satisfies the two properties of Lemma 1:
//
//   - Wins are guaranteed with no contention: a process competing alone for a
//     fresh pair eventually wins.
//   - Wins are exclusive: at most one contender ever wins a given pair.
//
// Note that a pair touched by a losing contender may be spoiled for later
// solo contenders (its HR is no longer null); the renaming algorithms account
// for this by competing only over expander neighborhoods of fresh pairs.
package compete

import "repro/internal/shmem"

// Pair is one competable register with its reservation placeholder. Both
// registers start at Null. The zero value is ready for use.
type Pair struct {
	H shmem.Reg // the placeholder HR of Figure 1
	R shmem.Reg // the register R being competed for
}

// Registers returns the number of shared registers a Pair occupies.
func (pr *Pair) Registers() int { return 2 }

// LastClaim returns the identity most recently written to R, or shmem.Null if
// R was never written. Harness use only (it does not charge steps). Note a
// subtlety of Figure 1 that our adversarial tests surface: a slow loser can
// overwrite R after the winner's final HR check, so LastClaim is NOT
// necessarily the winner — winning is decided by Compete returning true, and
// the renaming algorithms name processes by the pair's index, never by R's
// content.
func (pr *Pair) LastClaim() int64 { return pr.R.Peek() }

// Compete runs the Figure 1 procedure for process p using identity id
// (any non-Null value unique to the contender, typically the process's
// original or intermediate name). It returns true exactly when p wins the
// pair. At most 5 local steps are taken.
func Compete(p *shmem.Proc, pr *Pair, id int64) bool {
	if id == shmem.Null {
		panic("compete: identity must be non-null")
	}
	if contention := p.Read(&pr.H); contention != shmem.Null {
		return false
	}
	p.Write(&pr.H, id)
	if contention := p.Read(&pr.R); contention != shmem.Null {
		return false
	}
	p.Write(&pr.R, id)
	return p.Read(&pr.H) == id
}

// Field is a contiguous array of competition pairs, used as the register
// space of one renaming structure (two shared registers per name).
type Field struct {
	pairs []Pair
}

// NewField allocates m fresh pairs.
func NewField(m int) *Field {
	return &Field{pairs: make([]Pair, m)}
}

// Len returns the number of pairs.
func (f *Field) Len() int { return len(f.pairs) }

// Pair returns the i-th pair, 0-based.
func (f *Field) Pair(i int) *Pair { return &f.pairs[i] }

// Registers returns the number of shared registers the field occupies.
func (f *Field) Registers() int { return 2 * len(f.pairs) }

// Reset rewinds every pair to the fresh Null state via direct pokes. It is a
// harness-level recycling operation, not a register access: no steps are
// charged and no process may be mid-competition on the field when it runs.
// The long-lived service layer calls it only at generation quiescence (no
// attached session can still read or write these registers), which is what
// makes the poke equivalent to allocating a fresh field.
//
// Registers already holding Null are skipped (shmem.Reg.Clear), so a recycle
// costs a scan of plain loads plus one poke per register the generation
// wrote; a contender touches at most a few pairs of a large field. The
// postcondition is unchanged: every register holds Null. A register that was
// already Null keeps its version counter instead of having it bumped. Only
// the state-capture layer reads versions, and it never coexists with
// recycling: vexec refuses Relaunch under EnableState, and the service
// proofs use the stateless walker.
func (f *Field) Reset() {
	for i := range f.pairs {
		f.pairs[i].H.Clear()
		f.pairs[i].R.Clear()
	}
}

// Claimed returns the set of (index, last-claim-id) pairs whose R register is
// non-null. Harness use only; see Pair.LastClaim for why the id may be a
// loser's.
func (f *Field) Claimed() map[int]int64 {
	out := make(map[int]int64)
	for i := range f.pairs {
		if w := f.pairs[i].LastClaim(); w != shmem.Null {
			out[i] = w
		}
	}
	return out
}

package core

import (
	"fmt"

	"repro/internal/compete"
	"repro/internal/expander"
	"repro/internal/shmem"
)

// Majority is the algorithm Majority(ℓ,N) of Lemma 4: an
// (ℓ,N)-majority-renaming object. Up to ℓ contenders with distinct original
// names in [1..N] each walk the Δ expander neighbors of their name,
// competing (Figure 1) for the register pair of every visited node; the
// winner of a pair adopts the node's index as its new name. Lemma 2
// guarantees that more than half the contenders own a unique neighbor and
// therefore win.
//
// Bounds of Lemma 4 (paper profile): M = 12e⁴·ℓ·lg(N/ℓ) names, O(log N)
// local steps (≤ 5Δ), and O(M) auxiliary registers (2 per name).
type Majority struct {
	graph *expander.Graph
	field *compete.Field
}

// NewMajority builds the object for up to l contenders out of nNames
// possible original names.
func NewMajority(l, nNames int, cfg Config) *Majority {
	cfg = cfg.normalize()
	g := expander.New(nNames, l, cfg.Profile, cfg.Seed)
	return &Majority{graph: g, field: compete.NewField(g.M)}
}

// Graph exposes the underlying expander (for verification harnesses).
func (m *Majority) Graph() *expander.Graph { return m.graph }

// MaxName implements Renamer: names are output-node indices in [1..M].
func (m *Majority) MaxName() int64 { return int64(m.graph.M) }

// Registers implements Renamer.
func (m *Majority) Registers() int { return m.field.Registers() }

// MaxSteps is the wait-free step bound: five register accesses per
// competition over Δ neighbors.
func (m *Majority) MaxSteps() int64 { return int64(5 * m.graph.Degree) }

// Recycle rewinds the register field to its freshly constructed state while
// keeping the (expensive) expander graph. Harness-level: no process may be
// mid-walk — the long-lived service recycles an instance only once its
// generation is quiescent. It costs a scan of the field plus one poke per
// register the generation wrote (see compete.Field.Reset): the ≤ℓ
// contenders touch at most Δ pairs each out of M, and untouched registers
// keep their version counters.
func (m *Majority) Recycle() { m.field.Reset() }

// Rename implements Renamer. It is wait-free with at most MaxSteps() local
// steps; failure (ok=false) means every neighbor competition was lost, which
// Lemma 2 bounds to under half of any contender set of size <= ℓ.
func (m *Majority) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	if orig < 1 || orig > int64(m.graph.N) {
		panic(fmt.Sprintf("core: original name %d outside [1..%d]", orig, m.graph.N))
	}
	for i := 0; i < m.graph.Degree; i++ {
		w := m.graph.Neighbor(orig, i)
		if compete.Compete(p, m.field.Pair(w-1), orig) {
			return int64(w), true
		}
	}
	return 0, false
}

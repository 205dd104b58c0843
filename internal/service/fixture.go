package service

import (
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// LLFixture packages a small long-lived service as a check.Renamer so the
// model checker can walk its complete schedule-and-crash tree: each of n
// "contenders" is a lane running a short stream of sessions
// (acquire → release → reacquire → release for sessionsPer=2) against one
// shared Service. Rename/FrameRename return the lane's last issued packed
// name, so the one-shot Exclusive checker applies verbatim — packed names
// are globally unique across the whole history, not just per generation.
//
// The deep invariants ride on Config.Audit: every bookkeeping transition is
// folded into check.LLVerifier online, and a violation panics inside the
// granted step that caused it, which the checker surfaces as a process-panic
// Violation with the offending schedule. A crashed lane simply stops
// (fail-stop, no driver to reclaim it) — its generation never quiesces and
// its registers are never reused, which is exactly the conservative side of
// the quiescence gate.
//
// The fixture requires the stateless walker (model.WalkerSleepSet): service
// bookkeeping lives outside the engines' register state, so checkpoint/
// restore would rewind registers but not generations. Under stateless
// walking every execution rebuilds the fixture from scratch (fresh Service)
// and bookkeeping is a pure function of the grant sequence.
type LLFixture struct {
	svc   *Service
	lanes []*Lane
}

// NewLLFixture builds the fixture: n lanes over one shard, generations of
// capacity cap, sessionsPer sessions per lane. The configuration is sized
// for exhaustible trees: the firstfit field carries no slack pairs and a
// lost acquire fails rather than retrying (the retry loop multiplies
// execution length; it is exercised by the streaming tests and the churn
// adversaries instead).
func NewLLFixture(algo string, n, cap, sessionsPer int, seed uint64) *LLFixture {
	svc := New(Config{Cap: cap, Algo: algo, Seed: seed, Audit: true, MaxAttempts: 1, FFPairs: cap, PoolGens: 2})
	fx := &LLFixture{svc: svc, lanes: make([]*Lane, n)}
	for i := 0; i < n; i++ {
		i := i
		k := 0
		next := func() (int64, bool) {
			if k >= sessionsPer {
				return 0, false
			}
			k++
			return int64((k-1)*n + i + 1), true
		}
		fx.lanes[i] = NewLane(svc, next, nil)
	}
	// Pre-start every lane's first session in pid order — the deterministic
	// construction-time join that replaces the streaming driver's relaunch.
	for _, ln := range fx.lanes {
		ln.StartNext(0)
	}
	return fx
}

// Service exposes the underlying service (tests read Stats and Record).
func (fx *LLFixture) Service() *Service { return fx.svc }

// Rename implements check.Renamer: contender orig is lane orig-1; the lane
// runs its whole session stream and reports its last session's outcome.
func (fx *LLFixture) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	ln := fx.lanes[orig-1]
	ln.Body(p)
	if ln.Done > 0 && ln.Acquired {
		return ln.Name().Int(), true
	}
	return 0, false
}

// MaxName implements check.Renamer. Packed names occupy the full positive
// int64 range by construction (epoch in the high bits), so the bound is
// generous rather than tight; the long-lived invariants are checked by the
// audit, not by name-range accounting.
func (fx *LLFixture) MaxName() int64 { return 1<<62 - 1 }

// Registers implements check.Renamer: the presence rows plus the backends'
// fields of the generations allocated so far (informational).
func (fx *LLFixture) Registers() int {
	regs := 0
	for _, sh := range fx.svc.shards {
		gens := len(sh.pool)
		if sh.cur != nil {
			gens++
		}
		regs += gens * (fx.svc.cfg.Cap + fx.svc.cfg.newBackend().Registers())
	}
	return regs
}

// FrameRename implements vexec.FrameRenamer: the frame compilation of the
// same lane stream.
func (fx *LLFixture) FrameRename(orig int64) vexec.Frame {
	return &StreamFrame{ln: fx.lanes[orig-1]}
}

var _ vexec.FrameRenamer = (*LLFixture)(nil)

// StreamFrame chains a lane's sessions into one frame automaton: run the
// current session's frame; when it returns, pull the next arrival and
// continue; finish with the last session's result. It is the model-checking
// counterpart of the streaming driver's relaunch loop (which the checker
// cannot issue — relaunches are harness actions, not replayable decisions).
type StreamFrame struct {
	ln      *Lane
	entered bool
}

func (f *StreamFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	ln := f.ln
	if f.entered {
		if ln.StartNext(p.Steps()) {
			ln.frame = sessionFrame{ln: ln}
			return m.Call(&ln.frame)
		}
		return m.Return(m.RetI, m.RetB)
	}
	f.entered = true
	if ln.g == nil {
		return m.Return(0, false)
	}
	ln.frame = sessionFrame{ln: ln}
	return m.Call(&ln.frame)
}

// Image implements vexec.Imager: the frame value plus the image of the
// lane's session frame it calls. Like sessionFrame's, it leaves the lane and
// service bookkeeping out.
func (f *StreamFrame) Image(img any, load bool) any {
	im := vexec.Nest(f, img, load)
	im.Child[0] = f.ln.frame.Image(im.Child[0], load)
	return im
}

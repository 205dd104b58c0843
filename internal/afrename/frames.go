package afrename

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/snapshot"
	"repro/internal/vexec"
)

// RenameFrame is the frame compilation of Rename: propose/scan rounds over
// the embedded snapshot until the proposal is unique in the view (or a
// configured bound is hit). The (name, ok) result lands in M.RetI/M.RetB.
type RenameFrame struct {
	r       *Renamer
	slot    int
	id      int64
	prop    int64
	attempt int
	uf      snapshot.UpdateFrame[entry]
	sf      snapshot.ScanFrame[entry]
	view    []snapshot.View[entry]
	taken   []int64
	pc      uint8
}

// Init arms the frame for one acquisition on r from slot with identity id.
// The embedded snapshot frames and the taken scratch are re-armed in place,
// not zeroed, so their buffers carry across acquisitions.
func (f *RenameFrame) Init(r *Renamer, slot int, id int64) {
	f.r, f.slot, f.id = r, slot, id
	f.prop, f.attempt = 0, 0
	f.view = nil
	f.pc = 0
}

func (f *RenameFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		if f.id == shmem.Null {
			panic("afrename: identity must be non-null")
		}
		if f.slot < 0 || f.slot >= f.r.snap.Len() {
			panic(fmt.Sprintf("afrename: slot %d outside [0..%d)", f.slot, f.r.snap.Len()))
		}
		f.prop = 1
		f.attempt = 1
		return f.beginAttempt(m)
	case 1:
		// Update finished; scan for the decision view.
		f.pc = 2
		f.sf.Init(f.r.snap, &f.view)
		return m.Call(&f.sf)
	default:
		if unique(f.view, f.slot, f.prop) {
			return m.Return(f.prop, true)
		}
		f.prop, f.taken = freeNameByRank(f.view, f.slot, f.id, f.taken)
		if f.r.MaxAttempts > 0 && f.attempt >= f.r.MaxAttempts {
			return m.Return(0, false)
		}
		f.attempt++
		return f.beginAttempt(m)
	}
}

// beginAttempt starts one propose/scan round: the MaxName gate, then the
// snapshot update publishing the proposal.
func (f *RenameFrame) beginAttempt(m *vexec.M) vexec.Status {
	if f.r.MaxName > 0 && f.prop > f.r.MaxName {
		return m.Return(0, false)
	}
	f.pc = 1
	f.uf.Init(f.r.snap, f.slot, entry{id: f.id, prop: f.prop})
	return m.Call(&f.uf)
}

// Image implements vexec.Imager: the frame value plus the scratch of
// whichever embedded snapshot frame runs — the update (pc 1) or the scan
// (pc 2). The taken buffer is not imaged: every use rebuilds it from empty
// within one Run, so only its header — carried by the value copy — outlives
// a yield.
func (f *RenameFrame) Image(img any, load bool) any {
	im := vexec.Nest(f, img, load)
	switch f.pc {
	case 1:
		im.Child[0] = f.uf.Image(im.Child[0], load)
	case 2:
		im.Child[1] = f.sf.Image(im.Child[1], load)
	}
	return im
}

package snapshot

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/vexec"
)

// collectFrame is the frame compilation of collect: n ReadRefs in segment
// order, the collected pointers landing in out.
type collectFrame[T any] struct {
	o       *Object[T]
	out     []*segment[T]
	i       int
	entered bool
}

// init arms the frame for one collect into buf's backing array (grown when
// too small). The caller owns buf's lifetime: the collect overwrites every
// entry before the frame reports Done, so stale contents need no clearing,
// but the buffer must not alias a collect still being consumed.
func (f *collectFrame[T]) init(o *Object[T], buf []*segment[T]) {
	*f = collectFrame[T]{o: o, out: grow(buf, len(o.segs))}
}

// grow returns a length-n slice reusing buf's backing array when it is large
// enough. Contents are unspecified; callers overwrite every entry.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func (f *collectFrame[T]) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.entered {
		f.out[f.i] = shmem.ReadRef(p, &f.o.segs[f.i])
		f.i++
	}
	f.entered = true
	if f.i >= len(f.o.segs) {
		return vexec.Done
	}
	return m.Intend(shmem.OpRead, &f.o.segs[f.i])
}

// collectImage is a collectFrame's image: the frame value plus the contents
// of the collect buffer it fills in place.
type collectImage[T any] struct {
	f   collectFrame[T]
	out []*segment[T]
}

// Image implements vexec.Imager.
func (f *collectFrame[T]) Image(img any, load bool) any {
	im, ok := img.(*collectImage[T])
	if !ok {
		im = new(collectImage[T])
	}
	if load {
		*f = im.f
		copy(f.out, im.out)
	} else {
		im.f = *f
		im.out = append(im.out[:0], f.out...)
	}
	return im
}

// ScanFrame is the frame compilation of Scan. The returned view is delivered
// through the destination pointer planted by Init (frames returning slices
// cannot use M.RetI).
type ScanFrame[T any] struct {
	o     *Object[T]
	out   *[]View[T]
	moved []int
	prev  []*segment[T]
	cf    collectFrame[T]
	bufs  [2][]*segment[T] // collect scratch, alternated so prev stays live
	cn    uint8            // collects issued; low bit selects the buffer
	pc    uint8
}

// Init arms the frame for one scan of o; the view lands in *out when the
// frame finishes. Scratch buffers survive re-arming: a frame driven through
// many scans (every rename attempt embeds one or two) allocates only on its
// first. The delivered view itself is always fresh — it escapes into the
// caller (and, via UpdateFrame, into shared memory).
func (f *ScanFrame[T]) Init(o *Object[T], out *[]View[T]) {
	moved, bufs := f.moved, f.bufs
	*f = ScanFrame[T]{o: o, out: out, bufs: bufs}
	f.moved = grow(moved, len(o.segs))
	clear(f.moved)
}

// collect issues the next collect into the scratch buffer prev does not
// alias: only two collects are ever live at once (prev and the one in
// flight), so two buffers alternated by collect parity suffice.
func (f *ScanFrame[T]) collect(m *vexec.M) vexec.Status {
	f.cf.init(f.o, f.bufs[f.cn&1])
	f.bufs[f.cn&1] = f.cf.out
	f.cn++
	return m.Call(&f.cf)
}

func (f *ScanFrame[T]) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		f.pc = 1
		return f.collect(m)
	case 1:
		f.prev = f.cf.out
		f.pc = 2
		return f.collect(m)
	default:
		cur := f.cf.out
		if sameCollect(f.prev, cur) {
			*f.out = viewOf(cur)
			return vexec.Done
		}
		n := len(f.o.segs)
		for i := 0; i < n; i++ {
			ps, cs := int64(-1), int64(-1)
			if f.prev[i] != nil {
				ps = f.prev[i].seq
			}
			if cur[i] != nil {
				cs = cur[i].seq
			}
			if ps != cs {
				f.moved[i]++
				if f.moved[i] >= 2 {
					v := make([]View[T], n)
					copy(v, cur[i].view)
					*f.out = v
					return vexec.Done
				}
			}
		}
		f.prev = cur
		return f.collect(m)
	}
}

// scanImage is a ScanFrame's image: the frame value plus the contents of the
// scratch it mutates in place — the moved counters and both collect buffers
// (prev and the embedded collect's out alias them, so the value copy of
// those headers is covered too).
type scanImage[T any] struct {
	f     ScanFrame[T]
	moved []int
	bufs  [2][]*segment[T]
}

// Image implements vexec.Imager. The value copy restores the scratch slice
// headers — the backing arrays the frame used at the save — and the saved
// contents are copied back into those arrays.
func (f *ScanFrame[T]) Image(img any, load bool) any {
	im, ok := img.(*scanImage[T])
	if !ok {
		im = new(scanImage[T])
	}
	if load {
		*f = im.f
		copy(f.moved, im.moved)
		copy(f.bufs[0], im.bufs[0])
		copy(f.bufs[1], im.bufs[1])
		return im
	}
	im.f = *f
	im.moved = append(im.moved[:0], f.moved...)
	im.bufs[0] = append(im.bufs[0][:0], f.bufs[0]...)
	im.bufs[1] = append(im.bufs[1][:0], f.bufs[1]...)
	return im
}

// UpdateFrame is the frame compilation of Update: the embedded scan's reads
// followed by one WriteRef installing the new segment.
type UpdateFrame[T any] struct {
	o    *Object[T]
	i    int
	v    T
	sf   ScanFrame[T]
	view []View[T]
	seg  *segment[T]
	pc   uint8
}

// Init arms the frame to install v as segment i of o. The embedded scan
// frame is re-armed in place (not zeroed) so its scratch buffers carry over.
func (f *UpdateFrame[T]) Init(o *Object[T], i int, v T) {
	f.o, f.i, f.v = o, i, v
	f.view = nil
	f.seg = nil
	f.pc = 0
}

func (f *UpdateFrame[T]) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	switch f.pc {
	case 0:
		if f.i < 0 || f.i >= len(f.o.segs) {
			panic(fmt.Sprintf("snapshot: segment %d outside [0..%d)", f.i, len(f.o.segs)))
		}
		f.pc = 1
		f.sf.Init(f.o, &f.view)
		return m.Call(&f.sf)
	case 1:
		old := f.o.segs[f.i].PeekRef()
		var seq int64 = 1
		if old != nil {
			seq = old.seq + 1
		}
		f.seg = &segment[T]{data: f.v, set: true, seq: seq, view: f.view}
		f.pc = 2
		return m.Intend(shmem.OpWrite, &f.o.segs[f.i])
	default:
		shmem.WriteRef(p, &f.o.segs[f.i], f.seg)
		return vexec.Done
	}
}

// Image implements vexec.Imager: the frame value plus the scratch of its
// embedded scan while the scan runs (pc 1).
func (f *UpdateFrame[T]) Image(img any, load bool) any {
	im := vexec.Nest(f, img, load)
	if f.pc == 1 {
		im.Child[0] = f.sf.Image(im.Child[0], load)
	}
	return im
}

// Package vexec is the vectorized step-function engine: it executes the
// paper's algorithms as explicit frame automata instead of goroutines, so a
// single thread steps thousands of interleaved executions with no gate
// handoffs, no parking and no stacks. Where the goroutine engine
// (sched.Controller) pays a cross-goroutine rendezvous per grant (~0.6 µs,
// the floor recorded by BENCH_PR5.json), a vexec grant is a method call into
// the process's top frame — nanoseconds.
//
// The two engines implement the same seam (sched.Engine) and share the same
// decision loop (sched.DriveEngine), trace replay (sched.ApplyTraceTo) and
// fingerprint fold (sched.FoldGrant), so a policy, crash plan or recorded
// trace drives either engine unchanged. The contract is bit-identity: same
// Result, same Fingerprint, and — for scalar-register algorithms — the same
// StateHash as the goroutine engine on every decision sequence. The
// goroutine engine stays the conformance oracle; the differential tests in
// this package enforce the contract over the conformance table, randomized
// traces and the fault models.
//
// An algorithm is compiled by hand into a Frame per loop/call structure: a
// resumable state machine whose Run method advances the process's local
// computation from one shared-register access to the next. Because a
// deterministic body's local state is a pure function of the values it has
// read (the PR-5 catch-up-replay insight), this compilation is mechanical
// and loses nothing: the frame fields are exactly the live local variables
// at each access point, the exact step-function framing
// (localState, readValue) → (localState', nextIntent) of the asynchronous
// automata literature.
package vexec

import (
	"fmt"

	"repro/internal/shmem"
)

// Status is a frame's report of why it returned control to the engine.
type Status uint8

const (
	// Yield: the frame posted its next register access via M.Intend; the
	// process is pending until the scheduler grants it.
	Yield Status = iota
	// Call: the frame pushed a child via M.Call; the engine continues with
	// the child immediately (a call is local computation, not an access).
	Call
	// Done: the frame finished. Its return value, if any, was published via
	// M.Return (or through destination pointers the parent planted).
	Done
)

// Frame is one resumable activation record of a compiled algorithm body.
// The engine invokes Run to advance the process; the frame must:
//
//   - on its first invocation, compute up to its first register access and
//     post it (M.Intend), push a child (M.Call), or finish (Done) — no
//     access is performed on entry;
//   - on each invocation that follows a Yield, perform the access it had
//     posted (via the gateless Proc: p.Read/p.Write/shmem.ReadRef/...),
//     which charges the local step exactly as the goroutine engine would,
//     then advance to the next access, call or completion;
//   - on each invocation that follows a child's Done, consume the child's
//     result (M.RetI/M.RetB or planted pointers) and advance likewise.
//
// Exactly one counted access per granted step, performed by the frame that
// posted it — that invariant is what makes step counts, read logs and read
// hashes bit-identical to the goroutine engine's.
type Frame interface {
	Run(m *M, p *shmem.Proc) Status
}

// M is a process lane's machine: its frame stack plus the communication
// cells between frames and engine. Frames return values to their parents
// through RetI/RetB (set by Return, read by the parent on its next Run) or
// through destination pointers planted at construction; the engine reads
// the root frame's final RetI/RetB as the lane's result.
type M struct {
	stack  []Frame
	intent shmem.Intent

	// RetI, RetB carry the most recent Done frame's return value (the
	// int64-and-ok shape shared by every Rename in the repository).
	RetI int64
	RetB bool
}

// Intend posts the frame's next register access and yields. The access is
// not performed; the frame performs it itself on its next Run invocation.
func (m *M) Intend(k shmem.OpKind, reg any) Status {
	m.intent = shmem.Intent{Kind: k, Reg: reg}
	return Yield
}

// Call pushes a child frame; the engine runs it until it finishes, then
// resumes the caller.
func (m *M) Call(f Frame) Status {
	m.stack = append(m.stack, f)
	return Call
}

// Return publishes an (int64, ok) result and finishes the frame.
func (m *M) Return(v int64, ok bool) Status {
	m.RetI, m.RetB = v, ok
	return Done
}

// FrameRenamer is implemented by renaming algorithms that can compile their
// body into a frame automaton: FrameRename(orig) must be the exact frame
// compilation of Rename(p, orig) — same register accesses in the same
// order, same result. Harnesses detect the interface to route work onto
// this engine; the differential tests hold every implementation to the
// bit-identity contract.
type FrameRenamer interface {
	FrameRename(orig int64) Frame
}

// captureFrame adapts the check-harness calling convention to frames: it
// runs the wrapped frame and stores its (name, ok) result through the
// planted pointers, mirroring the goroutine harness body
// got[p.ID()], oks[p.ID()] = r.Rename(p, p.Name()).
type captureFrame struct {
	child   Frame
	got     *int64
	ok      *bool
	entered bool
}

// Capture wraps a root frame so its result lands in *got and *ok when the
// lane finishes. Building it zeroes the slot: a lane's slot then always holds
// its current root's outcome (zero until it finishes). The slot is part of
// the frame's image, so a lane Restore copies back never shows an abandoned
// branch's result and a lane Restore skips keeps its own.
func Capture(child Frame, got *int64, ok *bool) Frame {
	*got, *ok = 0, false
	return &captureFrame{child: child, got: got, ok: ok}
}

func (c *captureFrame) Run(m *M, p *shmem.Proc) Status {
	if !c.entered {
		c.entered = true
		return m.Call(c.child)
	}
	*c.got, *c.ok = m.RetI, m.RetB
	return Done
}

// captureImage is a captureFrame's image: the frame, its outcome slot and
// the image of the child it holds by pointer.
type captureImage struct {
	c     captureFrame
	got   int64
	ok    bool
	child any
}

// Image implements Imager. The outcome slot rides along, so a restored lane
// shows exactly the outcome it showed when the image was taken.
func (c *captureFrame) Image(img any, load bool) any {
	im, ok := img.(*captureImage)
	if !ok {
		im = new(captureImage)
	}
	if load {
		*c = im.c
		*c.got, *c.ok = im.got, im.ok
	} else {
		im.c = *c
		im.got, im.ok = *c.got, *c.ok
	}
	im.child = ImageOf(c.child, im.child, load)
	return im
}

// Imager is implemented by frames whose local state can be copied out and
// back — every frame compiled in this repository. Restore under EnableState
// rewinds a lane by loading an image of its root, so every root frame a
// state-enabled engine runs must implement it.
type Imager interface {
	// Image saves the frame's local state into img (load false) or loads it
	// back from img (load true), and returns the image. A save reuses img's
	// storage when img is an image an earlier save of the same frame type
	// returned, and allocates a fresh one otherwise (img nil). A load takes an
	// image a save of this same frame returned and puts the frame back in
	// exactly the state it was in at that save.
	//
	// The state is the frame's struct value — children embedded by value ride
	// along, so stack pointers into the frame stay valid — plus the contents
	// of every buffer the frame or a running embedded child mutates in place,
	// plus the image of any child frame held by pointer. An embedded child
	// that is not running (not on the lane's stack) needs nothing beyond the
	// value copy: its next call re-arms it with Init first, which leaves none
	// of its buffer contents live.
	Image(img any, load bool) any
}

// ImageOf calls f's Image method; it panics if f does not implement Imager.
func ImageOf(f Frame, img any, load bool) any {
	im, ok := f.(Imager)
	if !ok {
		panic(fmt.Sprintf("vexec: frame %T does not implement Imager (restore copies lane images)", f))
	}
	return im.Image(img, load)
}

// NestedImage is the image of a frame that holds the images of child frames:
// its struct value plus one slot per child image.
type NestedImage[F any] struct {
	value F
	Child [2]any
}

// Nest saves or loads f's struct value through img, as ValueImage does, and
// returns the image: the caller then saves or loads the images of the
// children its value copy does not cover into Child.
func Nest[F any](f *F, img any, load bool) *NestedImage[F] {
	im, ok := img.(*NestedImage[F])
	if !ok {
		im = new(NestedImage[F])
	}
	if load {
		*f = im.value
	} else {
		im.value = *f
	}
	return im
}

// ValueImage is the Image method of a frame whose whole local state is its
// struct value: no buffer it writes in place and no child behind a pointer.
func ValueImage[F any](f *F, img any, load bool) any {
	if load {
		*f = *img.(*F)
		return img
	}
	c, ok := img.(*F)
	if !ok {
		c = new(F)
	}
	*c = *f
	return c
}

package service

import (
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// Lane multiplexes a stream of sessions onto one engine process. The
// vectorized driver relaunches the lane's engine slot for each session
// (vexec.Exec.Relaunch); the goroutine driver runs Body, which loops the same
// lifecycle inline. Both compilations perform the identical access sequence
// per session:
//
//	W pres[slot]=tag          announce (first access; the crash anchor)
//	<one-shot algorithm>      acquire (the backend's own accesses)
//	W pres[slot]=Null         release if won (grant withheld during the
//	                          hold), failure exit if lost — on a loss with
//	                          attempts remaining the lane rejoins a younger
//	                          generation and the sequence restarts at the
//	                          announce
//
// All service bookkeeping (join at session start aside, which the driver
// performs at a deterministic relaunch/arm point) mutates inside granted
// step code, so a lane's bookkeeping is a function of the grant sequence.
//
// Lane fields are written by the session code inside granted steps and read
// by the driver between grants; the engines serialize the two (vexec runs
// frames on the driving goroutine; the goroutine engine's gate handshake
// orders body code against the decision loop).
type Lane struct {
	svc  *Service
	next func() (int64, bool)                    // arrival stream (nil: driver starts sessions explicitly)
	arm  func(b Backend, orig int64) vexec.Frame // retained algo frame re-armer
	hold func(sid int64) int64                   // sampled hold length in grants

	// Current session.
	sid      int64
	shardID  int
	slot     int
	g        *generation
	attempts int
	name     Name
	holding  bool

	// Spawn bookkeeping (vexec root / goroutine restart detection).
	liveSpawn    bool
	seenRestarts int

	acquireStart int64

	// Driver-visible session outcome.
	AcquireSteps int64 // local steps the last acquire took (announce included)
	HoldSteps    int64 // sampled hold for the current session
	Done         int64 // sessions completed on this lane
	Acquired     bool  // last completed session acquired (vs finally failed)

	frame sessionFrame
}

// NewLane builds a lane over svc. next, when non-nil, is the arrival stream
// the lane pulls its sessions from; hold, when non-nil, samples each
// session's hold length (in grants) from its session id.
func NewLane(svc *Service, next func() (int64, bool), hold func(sid int64) int64) *Lane {
	return &Lane{svc: svc, next: next, hold: hold, arm: NewLaneArmer(svc.cfg.Algo)}
}

// Start begins a session with identity sid on this lane. steps is the lane
// process's current local step count (acquire cost is measured from it).
// Called by the driver at a relaunch point or by the lane itself from
// granted code — both deterministic in the grant sequence.
func (ln *Lane) Start(sid int64, steps int64) {
	ln.sid = sid
	ln.attempts = 0
	ln.holding = false
	ln.shardID = ln.svc.ShardFor(sid)
	ln.g, ln.slot = ln.svc.join(ln.shardID, sid)
	ln.acquireStart = steps
	if ln.hold != nil {
		ln.HoldSteps = ln.hold(sid)
	} else {
		ln.HoldSteps = 0
	}
}

// StartNext pulls the next arrival and starts it, reporting whether there
// was one. With no arrival stream it reports false.
func (ln *Lane) StartNext(steps int64) bool {
	if ln.next == nil {
		return false
	}
	sid, ok := ln.next()
	if !ok {
		return false
	}
	ln.Start(sid, steps)
	return true
}

// InFlight reports whether a session is currently attached to a generation.
func (ln *Lane) InFlight() bool { return ln.g != nil }

// Holding reports whether the current session holds a name (its release
// write is posted but not yet granted).
func (ln *Lane) Holding() bool { return ln.holding }

// Name returns the last issued name (meaningful while Holding or right
// after a released session completes).
func (ln *Lane) Name() Name { return ln.name }

// Sid returns the current session identity.
func (ln *Lane) Sid() int64 { return ln.sid }

// DriverReclaim releases the lane's in-flight attachment after the driver
// observed the lane's process crash fail-stop (no restart coming). The lane
// becomes idle and can be restarted with a fresh session.
func (ln *Lane) DriverReclaim() {
	if ln.g == nil {
		return
	}
	ln.svc.Reclaim(ln.g, ln.shardID, ln.slot, ln.sid, ln.holding)
	ln.holding = false
	ln.g = nil
	ln.liveSpawn = false
}

// reclaimRejoin is the recovery-model path: a crashed incarnation's lease is
// reclaimed and the same session identity rejoins fresh on a younger
// generation. Runs at a respawn point, which both engines place
// deterministically in the grant sequence.
func (ln *Lane) reclaimRejoin(steps int64) {
	ln.svc.Reclaim(ln.g, ln.shardID, ln.slot, ln.sid, ln.holding)
	ln.holding = false
	ln.attempts = 0
	ln.g, ln.slot = ln.svc.join(ln.shardID, ln.sid)
	ln.acquireStart = steps
}

// sessionDone finalizes the current session's lane state (bookkeeping with
// the service already happened in the same granted step).
func (ln *Lane) sessionDone(acquired bool) {
	ln.Done++
	ln.Acquired = acquired
	ln.holding = false
	ln.g = nil
	ln.liveSpawn = false
}

// SpawnFrame is the vexec lane root: it re-arms the lane's retained session
// frame for the session the driver just started (zero allocations). If the
// lane is respawned while a session is in flight — a recovery-model restart
// of a crashed incarnation — the old lease is first reclaimed and the
// session rejoins fresh. A lane spawned with no session (arrivals gated)
// gets an immediately finishing frame and waits for a relaunch.
func (ln *Lane) SpawnFrame(p *shmem.Proc) vexec.Frame {
	if ln.g == nil {
		ln.liveSpawn = false
		return idleFrame{}
	}
	if ln.liveSpawn {
		ln.reclaimRejoin(p.Steps())
	}
	ln.liveSpawn = true
	ln.frame = sessionFrame{ln: ln}
	return &ln.frame
}

// idleFrame finishes without a single access: the lane had no session to
// run at spawn time.
type idleFrame struct{}

func (idleFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status { return m.Return(0, false) }

// Image implements vexec.Imager: an idle frame has no state.
func (idleFrame) Image(img any, load bool) any { return nil }

// sessionFrame is the frame compilation of one session's lifecycle.
type sessionFrame struct {
	ln *Lane
	af vexec.Frame
	pc uint8
}

// Image implements vexec.Imager: the frame value plus the image of the
// retained algorithm frame while it runs (pc 2). The lane and service
// bookkeeping the session updates lives outside the engine and is not
// imaged.
func (f *sessionFrame) Image(img any, load bool) any {
	im := vexec.Nest(f, img, load)
	if f.pc == 2 {
		im.Child[0] = vexec.ImageOf(f.af, im.Child[0], load)
	}
	return im
}

func (f *sessionFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	ln := f.ln
	switch f.pc {
	case 0: // post the announce write
		f.pc = 1
		return m.Intend(shmem.OpWrite, &ln.g.pres[ln.slot])
	case 1: // perform the announce, enter the algorithm
		p.Write(&ln.g.pres[ln.slot], presTag(ln.slot))
		f.pc = 2
		f.af = ln.arm(ln.g.backend, int64(ln.slot)+1)
		return m.Call(f.af)
	case 2: // algorithm returned
		if m.RetB {
			ln.AcquireSteps = p.Steps() - ln.acquireStart
			ln.name = ln.svc.won(ln.g, ln.shardID, ln.slot, ln.sid, m.RetI, ln.AcquireSteps)
			ln.holding = true
			f.pc = 3
			return m.Intend(shmem.OpWrite, &ln.g.pres[ln.slot])
		}
		ln.svc.closeForRetry(ln.g, ln.shardID)
		f.pc = 4
		return m.Intend(shmem.OpWrite, &ln.g.pres[ln.slot])
	case 3: // perform the release write
		p.Write(&ln.g.pres[ln.slot], shmem.Null)
		ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, true, true)
		ret := ln.name.Int()
		ln.sessionDone(true)
		return m.Return(ret, true)
	default: // perform the failure-exit write
		p.Write(&ln.g.pres[ln.slot], shmem.Null)
		ln.attempts++
		if ln.attempts < ln.svc.cfg.MaxAttempts {
			ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, false, false)
			ln.g, ln.slot = ln.svc.join(ln.shardID, ln.sid)
			f.pc = 1
			return m.Intend(shmem.OpWrite, &ln.g.pres[ln.slot])
		}
		ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, false, true)
		ln.sessionDone(false)
		return m.Return(0, false)
	}
}

// Body is the goroutine compilation of the lane: the same lifecycle as
// sessionFrame, looping sessions inline (the goroutine engine has no lane
// relaunch — one body serves its whole stream). A session must have been
// started (Start) before the body runs; the body pulls its next sessions
// from the arrival stream inside granted code.
func (ln *Lane) Body(p *shmem.Proc) {
	if r := p.Restarts(); r > ln.seenRestarts {
		// Recovery-model restart of a crashed incarnation: reclaim the old
		// lease and rejoin as the same session, fresh.
		ln.seenRestarts = r
		if ln.g != nil {
			ln.reclaimRejoin(p.Steps())
		}
	}
	for ln.g != nil {
		p.Write(&ln.g.pres[ln.slot], presTag(ln.slot))
		local, ok := ln.g.backend.Rename(p, int64(ln.slot)+1)
		if ok {
			ln.AcquireSteps = p.Steps() - ln.acquireStart
			ln.name = ln.svc.won(ln.g, ln.shardID, ln.slot, ln.sid, local, ln.AcquireSteps)
			ln.holding = true
			p.Write(&ln.g.pres[ln.slot], shmem.Null)
			ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, true, true)
			ln.sessionDone(true)
			ln.StartNext(p.Steps())
			continue
		}
		ln.svc.closeForRetry(ln.g, ln.shardID)
		p.Write(&ln.g.pres[ln.slot], shmem.Null)
		ln.attempts++
		if ln.attempts < ln.svc.cfg.MaxAttempts {
			ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, false, false)
			ln.g, ln.slot = ln.svc.join(ln.shardID, ln.sid)
			continue
		}
		ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, false, true)
		ln.sessionDone(false)
		ln.StartNext(p.Steps())
	}
}

package node

// The sharded engine schedules its transmissions through Line.Start, so the
// 1-tick transmit floor is part of its lookahead contract; the shardsafe
// lint rule checks it here.
//
// lint:shardsafe

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Line is one simplex link's PSN output line: the finite output queue, the
// link's cost module, the §2.2 delay measurement, the up/down state, and
// the single transmitter. Both packet engines embed one per directed link
// and drive it through Start, Finish, Fail and Restore; propagation and
// arrival at the far end stay with the engine.
//
// Not safe for concurrent use; a line belongs to one kernel.
type Line struct {
	Queue  *Queue
	Module CostModule
	Meas   Measurement

	bandwidth float64 // bits/second
	down      bool

	// The transmitter: the packet on it and the handle of its completion
	// event, so Fail can cancel the transmission instead of letting a stale
	// completion fire after a repair and start a second transmitter.
	busy    bool
	tx      *Packet
	txEvent sim.Handle

	kernel *sim.Kernel
	done   sim.Call
	arg    any
}

// NewLine returns an up, idle line holding at most queueLimit user
// packets. Each transmission completes with done(at, arg) on kernel.
func NewLine(queueLimit int, module CostModule, bandwidth float64, kernel *sim.Kernel, done sim.Call, arg any) Line {
	return Line{
		Queue:     NewQueue(queueLimit),
		Module:    module,
		bandwidth: bandwidth,
		kernel:    kernel,
		done:      done,
		arg:       arg,
	}
}

// Down reports whether the line is out of service.
func (l *Line) Down() bool { return l.down }

// Busy reports whether a packet is on the transmitter.
func (l *Line) Busy() bool { return l.busy }

// Transmitting returns the packet on the transmitter, or nil.
func (l *Line) Transmitting() *Packet { return l.tx }

// CompletionPending reports whether a completion event is scheduled.
func (l *Line) CompletionPending() bool { return l.txEvent.Pending() }

// Start begins transmitting the queue head at now, unless the line is down
// or already busy. The busy guard is load-bearing: without it a stale
// completion surviving a down→up flap would start a second concurrent
// transmitter and the line would run at twice its bandwidth. The transmit
// time is at least one tick, so the completion never collides with the
// event that started it.
func (l *Line) Start(now sim.Time) {
	if l.busy || l.down {
		return
	}
	p := l.Queue.Pop()
	if p == nil {
		return
	}
	tx := sim.FromSeconds(p.SizeBits / l.bandwidth)
	if tx < 1 {
		tx = 1
	}
	h, err := l.kernel.ScheduleCallAt(now+tx, l.done, l.arg)
	if err != nil {
		panic(fmt.Sprintf("node: %v", err))
	}
	l.busy, l.tx, l.txEvent = true, p, h
}

// Finish ends the transmission completing at now: it frees the
// transmitter, records the packet's queueing + transmission + processing
// delay (§2.2; propagation is tabled inside the cost module) and counts the
// hop. It returns the packet, now the engine's to propagate, or nil for a
// stale completion whose transmission Fail already cancelled.
func (l *Line) Finish(now sim.Time) *Packet {
	p := l.tx
	if !l.busy || p == nil {
		return nil
	}
	l.busy, l.tx, l.txEvent = false, nil, sim.Handle{}
	l.Meas.Record((now - p.Enqueued).Seconds() + ProcessingDelay.Seconds())
	p.Hops++
	return p
}

// Fail takes the line down. Every packet it holds goes to drop — the one
// on the transmitter first (its completion is cancelled), then the queue
// in FIFO order — and the partial measurement period is discarded. Nothing
// can be queued while the line is down, so the first period after Restore
// cannot see stale pre-outage Enqueued timestamps.
func (l *Line) Fail(drop func(*Packet)) {
	l.down = true
	if l.busy {
		l.txEvent.Cancel()
		p := l.tx
		l.busy, l.tx, l.txEvent = false, nil, sim.Handle{}
		drop(p)
	}
	for p := l.Queue.Pop(); p != nil; p = l.Queue.Pop() {
		drop(p)
	}
	l.Meas.Take()
}

// Restore returns the line to service: the cost module resets to its
// link-up state (an HN-SPF link comes back at its maximum cost and eases
// in, §5.4) and any partial measurement is discarded.
func (l *Line) Restore() {
	l.down = false
	l.Module.Reset()
	l.Meas.Take()
}

// Scan calls fn for every packet the line holds: queued, then on the
// transmitter. The callback must not mutate the line.
func (l *Line) Scan(fn func(*Packet)) {
	l.Queue.Scan(fn)
	if l.tx != nil {
		fn(l.tx)
	}
}

// Audit checks the single-transmitter invariant: a busy line has exactly
// one packet on the transmitter and one pending completion event, an idle
// line has neither, a down line transmits nothing and holds no backlog,
// and an idle up line has no backlog (the transmitter is work-conserving).
func (l *Line) Audit() error {
	if l.busy {
		switch {
		case l.down:
			return errors.New("transmitting while down")
		case l.tx == nil:
			return errors.New("busy with no in-flight packet")
		case !l.txEvent.Pending():
			return errors.New("busy with no pending completion event")
		}
	} else {
		switch {
		case l.tx != nil:
			return errors.New("idle with an in-flight packet")
		case l.txEvent.Pending():
			return errors.New("idle with a pending completion event (double transmitter)")
		case !l.down && l.Queue.Len() > 0:
			return fmt.Errorf("idle with %d queued packets", l.Queue.Len())
		}
	}
	if l.down && l.Queue.Len() > 0 {
		return fmt.Errorf("down with %d queued packets", l.Queue.Len())
	}
	return nil
}

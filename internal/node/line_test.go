package node

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// testLine builds a 56 kbps min-hop line on a fresh kernel. Like an
// engine's completion callback, each completion appends the finished
// packet to *done and starts the next transmission.
func testLine(done *[]*Packet) (*Line, *sim.Kernel) {
	k := sim.New()
	l := new(Line)
	*l = NewLine(4, NewCostModule(MinHop, topology.T56, 0), topology.T56.Bandwidth(), k, func(at sim.Time, arg any) {
		l := arg.(*Line)
		if p := l.Finish(at); p != nil {
			*done = append(*done, p)
		}
		l.Start(at)
	}, l)
	return l, k
}

func TestLineAudit(t *testing.T) {
	k := sim.New()
	pending := func() sim.Handle {
		return k.ScheduleCall(sim.Second, func(sim.Time, any) {}, nil)
	}
	queued := func() *Queue {
		q := NewQueue(4)
		q.Push(user(9))
		return q
	}
	for _, tc := range []struct {
		name string
		line Line
		want string // "" = no violation
	}{
		{"idle up", Line{Queue: NewQueue(4)}, ""},
		{"idle down", Line{Queue: NewQueue(4), down: true}, ""},
		{"busy", Line{Queue: queued(), busy: true, tx: user(1), txEvent: pending()}, ""},
		{"transmitting while down", Line{Queue: NewQueue(4), down: true, busy: true, tx: user(1), txEvent: pending()},
			"transmitting while down"},
		{"busy without packet", Line{Queue: NewQueue(4), busy: true, txEvent: pending()},
			"busy with no in-flight packet"},
		{"busy without completion", Line{Queue: NewQueue(4), busy: true, tx: user(1)},
			"busy with no pending completion event"},
		{"idle with packet", Line{Queue: NewQueue(4), tx: user(1)},
			"idle with an in-flight packet"},
		{"double transmitter", Line{Queue: NewQueue(4), txEvent: pending()},
			"idle with a pending completion event (double transmitter)"},
		{"idle with backlog", Line{Queue: queued()},
			"idle with 1 queued packets"},
		{"down with backlog", Line{Queue: queued(), down: true},
			"down with 1 queued packets"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.line.Audit()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Audit() = %v, want nil", err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Errorf("Audit() = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestLineTransmit(t *testing.T) {
	var done []*Packet
	l, k := testLine(&done)
	p := user(1)
	l.Queue.Push(p)
	l.Start(0)
	if !l.Busy() || l.Transmitting() != p || !l.CompletionPending() {
		t.Fatal("Start did not put the queue head on the transmitter")
	}
	k.Run()
	want := sim.FromSeconds(p.SizeBits / topology.T56.Bandwidth())
	if len(done) != 1 || done[0] != p || k.Now() != want {
		t.Fatalf("completion: %d packets at %v, want 1 at %v", len(done), k.Now(), want)
	}
	if p.Hops != 1 || l.Meas.Count() != 1 {
		t.Errorf("hops %d, measured %d; want 1 and 1", p.Hops, l.Meas.Count())
	}
	if got, wantD := l.Meas.Take(), want.Seconds()+ProcessingDelay.Seconds(); got != wantD {
		t.Errorf("measured delay %v, want queueing+transmission+processing %v", got, wantD)
	}
	if err := l.Audit(); err != nil {
		t.Error(err)
	}
}

func TestLineTransmitFloor(t *testing.T) {
	// A transmit time that rounds to zero ticks still completes one tick
	// after it started, never at the instant that started it.
	var done []*Packet
	l, k := testLine(&done)
	l.bandwidth = 1e12
	l.Queue.Push(user(1))
	l.Start(5)
	k.Run()
	if len(done) != 1 || k.Now() != 5+1 {
		t.Errorf("completion at %v, want %v", k.Now(), sim.Time(6))
	}
}

func TestLineNoStartWhileBusyOrDown(t *testing.T) {
	var done []*Packet
	l, k := testLine(&done)
	first, second := user(1), user(2)
	l.Queue.Push(first)
	l.Queue.Push(second)
	l.Start(0)
	l.Start(0)
	if l.Transmitting() != first || l.Queue.Len() != 1 || k.Pending() != 1 {
		t.Fatalf("second Start on a busy line: on tx %v, queued %d, events %d; want seq 1, 1, 1",
			l.Transmitting(), l.Queue.Len(), k.Pending())
	}

	l.Fail(func(*Packet) {})
	l.Queue.Push(user(3)) // bypasses the engines' down check on purpose
	l.Start(k.Now())
	if l.Busy() || k.Pending() != 0 {
		t.Fatalf("Start on a down line: busy %v, events %d", l.Busy(), k.Pending())
	}
	l.Restore()
	l.Start(k.Now())
	if !l.Busy() || l.Transmitting().Seq != 3 {
		t.Fatal("Start after Restore did not transmit")
	}
}

func TestLineFailOrder(t *testing.T) {
	var done []*Packet
	l, k := testLine(&done)
	for i := uint64(1); i <= 4; i++ {
		l.Queue.Push(user(i))
	}
	l.Start(0)
	k.Step() // seq 1 completes; seq 2 goes on the transmitter
	if l.Meas.Count() != 1 {
		t.Fatalf("setup: measured %d packets, want 1", l.Meas.Count())
	}
	l.Queue.Push(routing(9)) // head of the queue

	var dropped []uint64
	l.Fail(func(p *Packet) { dropped = append(dropped, p.Seq) })
	want := []uint64{2, 9, 3, 4} // transmitter first, then the queue in FIFO order
	if len(dropped) != len(want) {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
	for i := range want {
		if dropped[i] != want[i] {
			t.Fatalf("dropped %v, want %v", dropped, want)
		}
	}
	if !l.Down() || l.Busy() || l.Transmitting() != nil || l.CompletionPending() || l.Queue.Len() != 0 {
		t.Error("Fail left the transmitter or queue occupied")
	}
	if l.Meas.Count() != 0 {
		t.Errorf("Fail kept %d measured packets, want the partial period discarded", l.Meas.Count())
	}
	if err := l.Audit(); err != nil {
		t.Error(err)
	}
	k.Run()
	if len(done) != 1 {
		t.Errorf("%d completions fired; the cancelled transmission must not complete", len(done))
	}
}

func TestLineStaleFinish(t *testing.T) {
	var done []*Packet
	l, _ := testLine(&done)
	if p := l.Finish(sim.Second); p != nil {
		t.Errorf("Finish on an idle line returned %v, want nil", p)
	}
	if l.Meas.Count() != 0 {
		t.Error("a stale Finish recorded a measurement")
	}
}

func TestLineRestore(t *testing.T) {
	var done []*Packet
	l, _ := testLine(&done)
	l.Module = NewCostModule(HNSPF, topology.T56, 0.01)
	initial := l.Module.Cost()
	for i := 0; i < 5; i++ {
		l.Module.Update(0.001) // an idle line eases its cost down
	}
	if l.Module.Cost() >= initial {
		t.Fatal("setup: cost did not move")
	}
	l.Fail(func(*Packet) {})
	l.Meas.Record(1) // nothing records while down; plant one to see Restore clear it
	l.Restore()
	if l.Down() || l.Module.Cost() != initial || l.Meas.Count() != 0 {
		t.Errorf("Restore: down %v, cost %v (want %v), measured %d (want 0)",
			l.Down(), l.Module.Cost(), initial, l.Meas.Count())
	}
}

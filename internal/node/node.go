// Package node provides the PSN-side building blocks of the simulator:
// packets, the finite FIFO output queue with drop accounting, the per-link
// delay-measurement accumulator of §2.2 ("For every packet the PSN receives
// and forwards, it measures queueing and processing delay to which it adds
// tabled values of transmission and propagation delay... it averages this
// total delay over a ten-second period"), the cost-module abstraction
// that lets a network run with the HNM, the delay metric, or min-hop, and
// the output line (Line) that ties them to a link's single transmitter.
//
// internal/network and internal/shard wire these into their event loops.
package node

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flooding"
	"repro/internal/metric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// MeasurementPeriod is the link-cost measurement interval: "it averages
// this total delay over a ten-second period".
const MeasurementPeriod = 10 * sim.Second

// MaxUpdateInterval is the reliability refresh (§2.2): "the maximum time
// between routing updates for each PSN is 50 seconds".
const MaxUpdateInterval = 50 * sim.Second

// ProcessingDelay is the fixed per-packet PSN processing time.
const ProcessingDelay = 500 * sim.Microsecond

// Packet is one message or routing update moving through the network.
type Packet struct {
	Seq      uint64          // unique per network, for tracing
	Src, Dst topology.NodeID // endpoints (user packets)
	SizeBits float64
	Created  sim.Time // when generated at the source
	Enqueued sim.Time // when placed on the current output queue
	Hops     int      // links traversed so far

	// Counted marks a user packet generated inside the measurement window.
	// Every statistics site (delivery, each drop class, the in-flight walk)
	// keys on it, so the conservation identity offered == delivered + drops
	// + in-flight holds exactly over one well-defined packet population —
	// packets created during warmup but still alive afterwards can bias
	// neither side.
	Counted bool

	// Routing updates are flooded at high priority and are never user
	// traffic; Update is non-nil exactly for them. Vector is the 1969
	// distance-vector exchange payload (non-nil only in BF1969 mode).
	Update  *flooding.Update
	Vector  *Vector
	Arrival topology.LinkID // link the packet arrived on (NoLink at origin)

	poolNext *Packet // free-list link; non-nil only while pooled
}

// PacketPool recycles Packets through an intrusive free-list so a long run
// allocates no packet after warm-up. Safety rests on the conservation
// ledger: a packet is released exactly at the terminal sites the ledger
// enumerates (delivered, each drop class, routing consumption), so a packet
// still queued, on a transmitter, or propagating can never be recycled —
// the ledger would not balance if one were unaccounted.
//
// Not safe for concurrent use; each Network owns one.
type PacketPool struct {
	free *Packet
}

// Get returns a zeroed packet, recycling a released one when available.
func (pp *PacketPool) Get() *Packet {
	p := pp.free
	if p == nil {
		return &Packet{} // lint:alloc pool refill: the fresh packet is recycled forever after
	}
	pp.free = p.poolNext
	p.poolNext = nil
	return p
}

// Put releases a packet back to the pool, zeroing every field so no state
// can leak into its next life. Releasing the same packet twice panics —
// that would silently alias two live packets later.
func (pp *PacketPool) Put(p *Packet) {
	if p == pp.free || p.poolNext != nil {
		panic("node: packet released twice")
	}
	*p = Packet{poolNext: pp.free}
	pp.free = p
}

// Vector is a 1969 distance-vector table as exchanged between neighbors
// every 2/3 second (§2.1).
type Vector struct {
	Origin topology.NodeID
	Dist   []float64
}

// IsRouting reports whether the packet carries routing control traffic (a
// flooded SPF update or a distance-vector exchange).
func (p *Packet) IsRouting() bool { return p.Update != nil || p.Vector != nil }

// Queue is a finite FIFO output queue for one link. Routing updates enter
// at the front (the PSN processes and forwards them at high priority,
// §3.2 factor 3) and are never dropped; user packets are dropped when the
// buffer is full — the congestion signal of Figure 13.
//
// The store is a ring buffer: head-insert for routing packets and Pop are
// O(1), where the previous slice implementation shifted every element on
// both paths. The user-packet count is tracked incrementally so the limit
// check no longer scans the queue. The capacity is a power of two so index
// wrapping is a mask, not a division — Push/Pop are on the per-packet hot
// path of every trunk.
type Queue struct {
	limit   int // maximum queued user packets
	buf     []*Packet
	mask    int // len(buf)-1; len(buf) is always a power of two
	head    int // index of the front packet
	n       int // packets in the queue (all classes)
	users   int // user packets in the queue
	drops   int64
	maxSeen int
}

// NewQueue creates a queue holding at most limit user packets.
func NewQueue(limit int) *Queue {
	if limit <= 0 {
		panic("node: queue limit must be positive")
	}
	return &Queue{limit: limit}
}

// grow doubles the ring, linearizing the contents. Only routing packets can
// push the length past the user limit, so growth is rare.
// lint:alloc queue doubling is amortized O(1) per push
func (q *Queue) grow() {
	capacity := len(q.buf) * 2
	if capacity == 0 {
		capacity = 16
	}
	buf := make([]*Packet, capacity)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&q.mask]
	}
	q.buf = buf
	q.mask = capacity - 1
	q.head = 0
}

// Push enqueues a packet and reports whether it was accepted. Routing
// packets are placed at the head and always accepted.
func (q *Queue) Push(p *Packet) bool {
	if p.IsRouting() {
		if q.n == len(q.buf) {
			q.grow()
		}
		q.head = (q.head - 1) & q.mask
		q.buf[q.head] = p
		q.n++
		if q.n > q.maxSeen {
			q.maxSeen = q.n
		}
		return true
	}
	if q.users >= q.limit {
		q.drops++
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&q.mask] = p
	q.n++
	q.users++
	if q.n > q.maxSeen {
		q.maxSeen = q.n
	}
	return true
}

// Pop dequeues the next packet, or nil if empty.
func (q *Queue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & q.mask
	q.n--
	if !p.IsRouting() {
		q.users--
	}
	return p
}

// Len returns the number of queued packets (all classes).
func (q *Queue) Len() int { return q.n }

// Scan calls fn for every queued packet, head first. The callback must not
// mutate the queue; the invariant auditor uses it to count in-flight
// packets without disturbing them.
func (q *Queue) Scan(fn func(*Packet)) {
	for i := 0; i < q.n; i++ {
		fn(q.buf[(q.head+i)&q.mask])
	}
}

// Drops returns the number of user packets dropped for lack of buffers.
func (q *Queue) Drops() int64 { return q.drops }

// MaxSeen returns the high-water mark of the queue length.
func (q *Queue) MaxSeen() int { return q.maxSeen }

// Measurement accumulates per-link packet delays over one measurement
// period.
type Measurement struct {
	sum   float64 // seconds
	count int64
}

// Record adds one packet's queueing+transmission+processing delay.
func (m *Measurement) Record(delaySeconds float64) {
	m.sum += delaySeconds
	m.count++
}

// Take returns the period's average delay (0 if no packets were forwarded
// — an idle line; the metrics' bias/floor handles it) and resets the
// accumulator.
func (m *Measurement) Take() float64 {
	if m.count == 0 {
		return 0
	}
	avg := m.sum / float64(m.count)
	m.sum, m.count = 0, 0
	return avg
}

// Count returns the packets recorded in the current period.
func (m *Measurement) Count() int64 { return m.count }

// CostModule converts one measurement period's average delay into a
// reported cost. internal/core.Module (HN-SPF), metric.DSPF and
// metric.MinHop all satisfy it.
type CostModule interface {
	// Update processes one period's average measured delay (seconds) and
	// returns the advertised cost plus whether the change is significant
	// enough to flood.
	Update(measuredDelay float64) (cost float64, report bool)
	// Cost returns the currently advertised cost.
	Cost() float64
	// Floor returns the smallest cost the module can advertise; multipath
	// tolerance derivation and sanity checks rely on it.
	Floor() float64
	// Reset returns the module to its link-up state.
	Reset()
}

// Statically ensure the three metrics satisfy CostModule.
var (
	_ CostModule = (*core.Module)(nil)
	_ CostModule = (*metric.DSPF)(nil)
	_ CostModule = (*metric.MinHop)(nil)
)

// MetricKind selects the routing metric a network runs with.
type MetricKind int

// The three SPF metrics the paper compares (§5), plus the original 1969
// queue-length metric used by the Bellman-Ford baseline package.
const (
	HNSPF  MetricKind = iota // the revised metric (the paper's contribution)
	DSPF                     // measured delay (May 1979)
	MinHop                   // static
	BF1969                   // 1969 distributed Bellman-Ford, instantaneous queue length
)

// String returns the paper's name for the metric.
func (k MetricKind) String() string {
	switch k {
	case HNSPF:
		return "HN-SPF"
	case DSPF:
		return "D-SPF"
	case MinHop:
		return "min-hop"
	case BF1969:
		return "Bellman-Ford 1969"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(k))
	}
}

// MultipathToleranceFraction scales the smallest link floor in the network
// into the near-equality tolerance for multipath forwarding: large enough
// that parallel paths differing only by measurement noise split traffic,
// and strictly below the half-of-minimum-cost bound that guarantees loop
// freedom (see spf.ComputeDAG). tolerance = fraction × min(floor).
const MultipathToleranceFraction = 0.45

// NewCostModule builds the cost module of the given kind for a link.
func NewCostModule(kind MetricKind, lt topology.LineType, propDelay float64) CostModule {
	switch kind {
	case HNSPF:
		return core.NewModule(lt, propDelay)
	case DSPF:
		return metric.NewDSPF(lt, propDelay)
	case MinHop:
		return metric.NewMinHop()
	default:
		panic(fmt.Sprintf("node: unknown metric kind %d", int(kind)))
	}
}

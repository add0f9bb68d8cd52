package main

// Measurement helpers shared by the workloads: the operation recorder
// (latency samples plus attempted/failed counts), the peak-heap probe, the
// Go runtime's own counters, and process CPU time.

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// ops records one timed loop: every operation's wall time and whether its
// output check passed. A failed check is counted, never fatal.
type ops struct {
	durs      []float64 // seconds
	attempted int
	failed    int
	firstErr  error
}

func (o *ops) done(d time.Duration, err error) {
	o.attempted++
	o.durs = append(o.durs, d.Seconds())
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

// absorb adds another loop's attempted and failed counts to o.
func (o *ops) absorb(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pktsPerSec is the packet rate of a typical operation: the mean packets
// offered per operation over the median operation time. The median keeps
// a stall from another process on the machine out of the figure.
func pktsPerSec(pkts int64, durs []float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	return ratio(float64(pkts)/float64(len(durs)), median(durs))
}

// deadline reports whether a closed loop started at start with a budget of
// seconds should stop before its next operation.
func deadline(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}

// minOps is the fewest operations a timing run measures, so that op_p90_s
// has at least ten samples beyond it even on a slow or busy machine.
const minOps = 100

// timingDone reports whether a timing loop may stop: its budget is spent
// and it holds enough operations. Loops check it only between whole
// units of work (a study, a pass, an analysis), so every run measures the
// same mix of operations whatever the machine's speed.
func timingDone(o *ops, start time.Time, seconds float64) bool {
	return o.attempted >= minOps && deadline(start, seconds)
}

// runtimeSample holds the cumulative Go runtime counters a workload
// differences over its timed window.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds
	allocObjects    uint64
	allocBytes      uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocObjects: s[2].Value.Uint64(),
		allocBytes:   s[3].Value.Uint64(),
	}
}

// sub returns the counters accumulated between b and a.
func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
		allocObjects: a.allocObjects - b.allocObjects,
		allocBytes:   a.allocBytes - b.allocBytes,
	}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{
		gcCPU:        a.gcCPU + b.gcCPU,
		totalCPU:     a.totalCPU + b.totalCPU,
		allocObjects: a.allocObjects + b.allocObjects,
		allocBytes:   a.allocBytes + b.allocBytes,
	}
}

// gcFrac is the share of the runtime's CPU time spent in the collector.
func (a runtimeSample) gcFrac() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

// heapPeak tracks the largest live Go heap seen at the probe points, which
// the workloads place where the engine holds its full state (the end of a
// simulated pass, a built model). A probe collects garbage first, outside
// any timed operation, so the reading does not depend on when the
// collector last ran.
type heapPeak struct {
	sample [1]metrics.Sample
	peak   uint64
}

func newHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.sample[0].Name = "/memory/classes/heap/objects:bytes"
	return h
}

func (h *heapPeak) probe() {
	runtime.GC()
	metrics.Read(h.sample[:])
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// fingerprint identifies a run's simulated output: exact counts, listed
// by name so two runs can be diffed by eye, and floating-point results,
// hashed bit for bit because a speed-only change must not move one bit.
type fingerprint struct {
	text string
	h    hash.Hash64
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

// count adds one exact count.
func (f *fingerprint) count(name string, v int64) {
	if f.text != "" {
		f.text += " "
	}
	f.text += fmt.Sprintf("%s=%d", name, v)
	fmt.Fprintf(f.h, "%s=%d;", name, v)
}

// float adds floating-point results to the hash only.
func (f *fingerprint) float(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		f.h.Write(b[:])
	}
}

func (f *fingerprint) String() string {
	return fmt.Sprintf("%016x %s", f.h.Sum64(), f.text)
}

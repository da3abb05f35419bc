package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 over 500 samples rests on five values and is
// not reported.
const minBeyond = 10

// histSub is the number of log-spaced buckets per power of two: the
// relative bucket width, and so the worst-case percentile error, is
// 2^(1/histSub)-1 ≈ 0.54%.
const histSub = 128

// histOctaves covers 1 ns .. 2^40 ns (~18 minutes).
const histOctaves = 40

// latencyHist is a log-bucketed histogram of durations. Recording never
// allocates, so it can sit inside a timed window.
type latencyHist struct {
	counts [histOctaves * histSub]uint64
	n      uint64
	sum    int64 // ns, for the exact mean
}

func histBucket(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	b := int(math.Log2(float64(ns)) * histSub)
	if b >= histOctaves*histSub {
		b = histOctaves*histSub - 1
	}
	return b
}

// add records one duration in nanoseconds.
func (h *latencyHist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
	h.sum += ns
}

// mean returns the mean duration in nanoseconds; 0 for no samples.
func (h *latencyHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile in nanoseconds (the geometric middle of
// the bucket holding it). ok is false when fewer than minBeyond samples lie
// beyond the quantile.
func (h *latencyHist) quantile(q float64) (ns float64, ok bool) {
	if !enoughBeyond(h.n, q) {
		return 0, false
	}
	rank := uint64(math.Ceil(q*float64(h.n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return math.Exp2((float64(i) + 0.5) / histSub), true
		}
	}
	return 0, false
}

// enoughBeyond reports whether n samples leave at least minBeyond of them
// beyond the q-quantile.
func enoughBeyond(n uint64, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9 // 100*(1-0.9) is 9.999...
}

// quantile returns the f-quantile of xs (sorted in place), interpolating
// linearly between ranks; 0 for no samples.
func quantile(xs []float64, f float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := f * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median returns the median of xs (sorted in place); 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mustQuantile is quantile for a metric the run must report: too few
// samples is an error, not a missing number.
func mustQuantile(h *latencyHist, q float64) (float64, error) {
	v, ok := h.quantile(q)
	if !ok {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; the run has %d samples", q*100, minBeyond, h.n)
	}
	return v, nil
}

// memSample is a reading of the Go runtime's allocation and CPU counters,
// taken without stopping the world.
type memSample struct {
	allocObjects uint64  // cumulative heap objects allocated
	allocBytes   uint64  // cumulative heap bytes allocated
	heapLive     uint64  // heap bytes the last GC marked live
	gcCPU        float64 // cumulative GC CPU seconds
	gcAssist     float64 // the part of gcCPU allocating goroutines spent assisting
	totalCPU     float64 // cumulative CPU seconds available to Go
}

var memMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
}

// memReader reads memSamples into preallocated storage: reading does not
// allocate, so it may sit inside a timed window.
type memReader struct {
	samples []metrics.Sample
}

func newMemReader() *memReader {
	r := &memReader{samples: make([]metrics.Sample, len(memMetricNames))}
	for i, n := range memMetricNames {
		r.samples[i].Name = n
	}
	return r
}

func (r *memReader) read() memSample {
	metrics.Read(r.samples)
	return memSample{
		allocObjects: r.samples[0].Value.Uint64(),
		allocBytes:   r.samples[1].Value.Uint64(),
		heapLive:     r.samples[2].Value.Uint64(),
		gcCPU:        r.samples[3].Value.Float64(),
		totalCPU:     r.samples[4].Value.Float64(),
		gcAssist:     r.samples[5].Value.Float64(),
	}
}

// heapLive reads only the live-heap gauge, for peak tracking.
func (r *memReader) heapLive() uint64 {
	s := r.samples[2:3]
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU returns the user+system CPU time the process has used, all
// threads included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stretchLen is the window time over which one op-rate sample is taken.
const stretchLen = time.Second

// window accumulates the cost of a timed window that may be split into
// segments (the ipsec-mtu generator runs between segments, outside the
// window). It also cuts the window into stretches of stretchLen and keeps
// each stretch's op rate.
type window struct {
	mem      *memReader
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	bytes    uint64
	gcCPU    float64
	gcAssist float64
	cpuGo    float64
	// heap samples the live heap through the window.
	heap []float64
	// rates holds the op rate of every whole stretch.
	rates []float64

	// stretchWall is the window time of the open stretch before mark, a
	// time in the open segment; stretchOps is the op count when the
	// stretch opened.
	stretchWall time.Duration
	stretchOps  int64
	mark        time.Time

	startWall time.Time
	startCPU  time.Duration
	startMem  memSample
}

func newWindow() *window {
	return &window{mem: newMemReader(), heap: make([]float64, 0, 1<<16), rates: make([]float64, 0, 1<<12)}
}

// begin opens a segment.
func (w *window) begin() {
	w.startMem = w.mem.read()
	w.addHeap(w.startMem.heapLive)
	w.startCPU = processCPU()
	w.startWall = time.Now()
	w.mark = w.startWall
}

// end closes the segment opened by begin and returns its wall time.
func (w *window) end() time.Duration {
	now := time.Now()
	d := now.Sub(w.startWall)
	w.stretchWall += now.Sub(w.mark)
	cpu := processCPU()
	m := w.mem.read()
	w.wall += d
	w.cpu += cpu - w.startCPU
	w.alloc += m.allocObjects - w.startMem.allocObjects
	w.bytes += m.allocBytes - w.startMem.allocBytes
	w.gcCPU += m.gcCPU - w.startMem.gcCPU
	w.gcAssist += m.gcAssist - w.startMem.gcAssist
	w.cpuGo += m.totalCPU - w.startMem.totalCPU
	w.addHeap(m.heapLive)
	return d
}

// tick tells the window that the pass has completed ops ops so far. Once
// the open stretch has lasted stretchLen of window time, tick closes it and
// records its op rate. Callers tick inside a segment, at op boundaries; the
// partial stretch a window ends with is not recorded.
func (w *window) tick(ops int64) {
	now := time.Now()
	el := w.stretchWall + now.Sub(w.mark)
	if el < stretchLen {
		return
	}
	if len(w.rates) < cap(w.rates) {
		w.rates = append(w.rates, float64(ops-w.stretchOps)/el.Seconds())
	}
	w.stretchOps, w.stretchWall, w.mark = ops, 0, now
}

// sampleHeap records the live heap; call it now and then inside a
// segment. The live heap is what the last GC marked, so a sample does not
// depend on where in a GC cycle it falls.
func (w *window) sampleHeap() { w.addHeap(w.mem.heapLive()) }

func (w *window) addHeap(b uint64) {
	if len(w.heap) < cap(w.heap) {
		w.heap = append(w.heap, float64(b))
	}
}

// gcBackgroundNs is the GC CPU time over the window that no allocating
// goroutine paid for as assist (background marking, sweeping, pauses), per
// op. Assists are left out: the isolated layer timings already include
// the assists their own allocations triggered.
func (w *window) gcBackgroundNs(ops int64) float64 {
	return (w.gcCPU - w.gcAssist) * 1e9 / float64(ops)
}

// gcShare is the fraction of the Go runtime's CPU time spent in GC over
// the window.
func (w *window) gcShare() float64 {
	if w.cpuGo <= 0 {
		return 0
	}
	return w.gcCPU / w.cpuGo
}

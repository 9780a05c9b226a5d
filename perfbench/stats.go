package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile returns the q-quantile when at least ten samples lie
// beyond it; otherwise the highest quantile that still has ten samples
// beyond it (never below the median). The quantile actually used is
// returned so the report can state it.
func tailQuantile(xs []float64, q float64) (float64, float64) {
	n := float64(len(xs))
	used := q
	if n*(1-q) < 10 {
		used = math.Max(0.5, 1-10/n)
	}
	return quantile(xs, used), used
}

// tailNote describes a tail-quantile substitution for the report.
func tailNote(name string, q, used float64, n int) string {
	if used == q {
		return fmt.Sprintf("%s: p%g of %d samples", name, 100*q, n)
	}
	return fmt.Sprintf("%s: p%.1f of %d samples (too few for p%g with ten beyond)", name, 100*used, n, 100*q)
}

// geomean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler tracks the peak live heap while a measurement runs.
type heapSampler struct {
	peak   atomic.Uint64
	cancel context.CancelFunc
	done   chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler polls the live heap every 5 ms until stop.
func startHeapSampler() *heapSampler {
	ctx, cancel := context.WithCancel(context.Background())
	h := &heapSampler{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in MB.
func (h *heapSampler) stop() float64 {
	h.cancel()
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// gcStats is a runtime/metrics reading of the Go runtime layer.
type gcStats struct {
	allocBytes, cycles uint64
	gcCPU, totalCPU    float64
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcStats{
		allocBytes: s[0].Value.Uint64(),
		cycles:     s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// addGCLayer records the runtime layer's work between two readings.
func addGCLayer(r *result, before, after gcStats) {
	r.layers["gc.alloc_mb"] = metric{float64(after.allocBytes-before.allocBytes) / (1 << 20), "MB"}
	r.layers["gc.cycles"] = metric{float64(after.cycles - before.cycles), "count"}
	r.layers["gc.cpu_frac"] = metric{ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "frac"}
}

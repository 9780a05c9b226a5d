// Package pulsesim is the QuTiP substitute (§II-C, Table II): it propagates
// piecewise-constant control schedules through the device Hamiltonian to
// obtain the realized unitary of each customized gate, plays those through
// the statevector backend for whole-circuit fidelity (StateFidelity), and
// evaluates the paper's ESP metric (Eq. 2).
//
// Propagation is done on each customized gate's local Hilbert space (≤ 3
// qubits) and then embedded into the circuit space — mathematically
// identical to full-space integration because the pulse Hamiltonian acts
// only on the group's qubits, and vastly cheaper.
package pulsesim

import (
	"context"
	"fmt"
	"math"
	"time"

	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// EvolveCtx multiplies the slice propagators of a schedule on the system
// it was generated for, returning the realized unitary. Observability: a
// "pulsesim.evolve" span per schedule and counters for time slices
// propagated and matrix exponentials computed (one per slice propagator).
// The slice loop runs on destination-passing kernels: one propagator and
// two state buffers are allocated up front and reused across all slices.
func EvolveCtx(ctx context.Context, sys *hamiltonian.System, sched *pulse.Schedule) (*linalg.Matrix, error) {
	if len(sched.Amps) != len(sys.Controls) {
		return nil, fmt.Errorf("pulsesim: schedule has %d channels, system has %d controls",
			len(sched.Amps), len(sys.Controls))
	}
	_, span := obs.StartSpan(ctx, "pulsesim.evolve")
	defer span.End()
	n := sched.NumSlices()
	span.SetAttr("slices", n)
	span.SetAttr("dim", sys.Dim)
	reg := obs.MetricsFrom(ctx)
	reg.Counter("pulsesim.slices").Add(int64(n))
	reg.Counter("pulsesim.expm").Add(int64(n))
	if reg != nil {
		stage := reg.HistogramVec(obs.StageMetric, obs.LatencyBuckets, "stage").WithLabelValues("pulsesim")
		start := time.Now()
		defer func() {
			stage.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		}()
	}
	u := linalg.Identity(sys.Dim)
	uNext := linalg.New(sys.Dim, sys.Dim)
	prop := linalg.New(sys.Dim, sys.Dim)
	ws := linalg.NewWorkspace(sys.Dim)
	amps := make([]float64, len(sys.Controls))
	for j := 0; j < n; j++ {
		if err := ctx.Err(); err != nil {
			// Cancelled mid-evolution (a sibling worker failed): each slice
			// costs a matrix exponential, so bail between slices rather
			// than finishing the schedule.
			return nil, err
		}
		for k := range amps {
			amps[k] = sched.Amps[k][j]
		}
		sys.PropagatorInto(prop, amps, sched.SliceDt, ws)
		linalg.MulInto(uNext, prop, u)
		u, uNext = uNext, u
	}
	return u, nil
}

// GateFidelity is the standard trace fidelity between the intended and the
// realized gate unitary.
func GateFidelity(target, realized *linalg.Matrix) float64 {
	return linalg.TraceFidelity(target, realized)
}

// ESPCtx is the estimated success probability of Eq. (2): the product
// over customized gates of (1 - ε_i). Observability: counts
// evaluations and the gates they cover on the context's metrics registry.
func ESPCtx(ctx context.Context, gens []*pulse.Generated) float64 {
	reg := obs.MetricsFrom(ctx)
	reg.Counter("pulsesim.esp_evals").Inc()
	reg.Counter("pulsesim.esp_gates").Add(int64(len(gens)))
	esp := 1.0
	for _, g := range gens {
		esp *= 1 - g.Error
	}
	if esp < 0 {
		esp = 0
	}
	return esp
}

// TotalLatency sums pulse durations; with sequential stitching this bounds
// the circuit wall time, and it feeds the dephasing factor.
func TotalLatency(gens []*pulse.Generated) float64 {
	var t float64
	for _, g := range gens {
		t += g.Latency
	}
	return t
}

// DecoherenceFactor is the exponential dephasing survival for a circuit of
// the given critical-path latency: exp(-latency/t2). A t2 ≤ 0 turns the
// channel off (factor 1), as a zero T2Dt does on device.Profile.
func DecoherenceFactor(latencyDt, t2 float64) float64 {
	if t2 <= 0 {
		return 1
	}
	return math.Exp(-latencyDt / t2)
}

// IdleDephasing returns the survival factor for qubits idling between
// their pulses: for each qubit, the time between its first and last
// activity not covered by one of its own pulses counts as idle, and idle
// time dephases at 1/t2. This refines the critical-path-only model with
// the timeline's per-qubit gaps. A t2 ≤ 0 turns the channel off (factor 1).
func IdleDephasing(tl *pulse.Timeline, numQubits int, t2 float64) float64 {
	if t2 <= 0 {
		return 1
	}
	first := make([]float64, numQubits)
	last := make([]float64, numQubits)
	busy := make([]float64, numQubits)
	seen := make([]bool, numQubits)
	for _, e := range tl.Entries {
		for _, q := range e.Qubits {
			if q < 0 || q >= numQubits {
				continue
			}
			if !seen[q] || e.Start < first[q] {
				first[q] = e.Start
			}
			if !seen[q] || e.End > last[q] {
				last[q] = e.End
			}
			busy[q] += e.End - e.Start
			seen[q] = true
		}
	}
	var idle float64
	for q := 0; q < numQubits; q++ {
		if !seen[q] {
			continue
		}
		if gap := (last[q] - first[q]) - busy[q]; gap > 0 {
			idle += gap
		}
	}
	return math.Exp(-idle / t2)
}

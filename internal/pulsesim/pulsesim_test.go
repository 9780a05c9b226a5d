package pulsesim

import (
	"context"
	"math"
	"testing"

	"paqoc/internal/grape"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/pulse"
	"paqoc/internal/quantum"
)

func TestEvolveZeroScheduleIsIdentity(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil)
	sched := &pulse.Schedule{
		Channels: []string{"a", "b"},
		Amps:     [][]float64{make([]float64, 5), make([]float64, 5)},
		SliceDt:  4,
	}
	u, err := EvolveCtx(context.Background(), sys, sched)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Equal(linalg.Identity(2), 1e-12) {
		t.Error("zero drive should evolve to identity")
	}
}

func TestEvolveChannelMismatch(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil)
	sched := &pulse.Schedule{Amps: [][]float64{{0}}, SliceDt: 1}
	if _, err := EvolveCtx(context.Background(), sys, sched); err == nil {
		t.Error("expected channel-count error")
	}
}

func TestEvolveConstantXDrive(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil)
	// π rotation split over 10 slices.
	slices := 10
	amp := hamiltonian.DriveBound
	dur := math.Pi / amp / float64(slices)
	sched := &pulse.Schedule{
		Channels: []string{"x", "y"},
		Amps:     [][]float64{constSlice(amp, slices), constSlice(0, slices)},
		SliceDt:  dur,
	}
	u, err := EvolveCtx(context.Background(), sys, sched)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.GlobalPhaseDistance(u, quantum.MatX); d > 1e-9 {
		t.Errorf("constant X drive distance to X gate: %g", d)
	}
}

func TestGrapePulseSimulatesToTarget(t *testing.T) {
	// End-to-end check: GRAPE's schedule, replayed through the simulator,
	// realizes the target within the reported fidelity.
	sys := hamiltonian.XYTransmon(2, hamiltonian.LinearChain(2))
	sched, _, fid, err := grape.MinimumTimeCtx(context.Background(), sys, quantum.MatCX.Clone(), grape.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	u, err := EvolveCtx(context.Background(), sys, sched)
	if err != nil {
		t.Fatal(err)
	}
	if got := GateFidelity(quantum.MatCX, u); got < fid-1e-6 {
		t.Errorf("simulated fidelity %.6f below reported %.6f", got, fid)
	}
}

func TestESPProduct(t *testing.T) {
	gens := []*pulse.Generated{
		{Error: 0.01},
		{Error: 0.02},
	}
	want := 0.99 * 0.98
	if got := ESPCtx(context.Background(), gens); math.Abs(got-want) > 1e-12 {
		t.Errorf("ESP = %g, want %g", got, want)
	}
	if ESPCtx(context.Background(), nil) != 1 {
		t.Error("empty ESP should be 1")
	}
}

func TestTotalLatency(t *testing.T) {
	gens := []*pulse.Generated{{Latency: 10}, {Latency: 32}}
	if TotalLatency(gens) != 42 {
		t.Error("TotalLatency wrong")
	}
}

func TestDecoherenceFactor(t *testing.T) {
	if f := DecoherenceFactor(0, 1000); f != 1 {
		t.Errorf("zero latency factor %g", f)
	}
	f1 := DecoherenceFactor(1000, 1000)
	if math.Abs(f1-math.Exp(-1)) > 1e-12 {
		t.Errorf("factor %g", f1)
	}
	// A non-positive t2 turns the dephasing channel off.
	for _, t2 := range []float64{0, -1} {
		if f := DecoherenceFactor(100, t2); f != 1 {
			t.Errorf("t2=%g: factor %g, want 1 (channel off)", t2, f)
		}
	}
}

func TestDecoherenceFactorMonotoneInLatency(t *testing.T) {
	if DecoherenceFactor(100, 20000) <= DecoherenceFactor(5000, 20000) {
		t.Error("longer circuits must have lower modelled fidelity")
	}
}

func constSlice(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func BenchmarkEvolveCXSchedule(b *testing.B) {
	sys := hamiltonian.XYTransmon(2, hamiltonian.LinearChain(2))
	sched, _, _, err := grape.MinimumTimeCtx(context.Background(), sys, quantum.MatCX.Clone(), grape.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvolveCtx(context.Background(), sys, sched); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStateFidelityPerfectAndPerturbed(t *testing.T) {
	ideal := []RealizedGate{
		{U: quantum.MatH, Wires: []int{0}},
		{U: quantum.MatCX, Wires: []int{0, 1}},
		{U: quantum.MatCX, Wires: []int{1, 2}},
	}
	// Perfect realization.
	f, err := StateFidelity(3, ideal, ideal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1) > 1e-12 {
		t.Errorf("perfect fidelity %g", f)
	}
	// Slightly wrong realization of the first gate.
	realized := append([]RealizedGate(nil), ideal...)
	realized[0] = RealizedGate{U: quantum.RY(math.Pi/2 + 0.05), Wires: []int{0}}
	f, err = StateFidelity(3, ideal, realized)
	if err != nil {
		t.Fatal(err)
	}
	if f > 0.9999 || f < 0.9 {
		t.Errorf("perturbed fidelity %g outside expected band", f)
	}
}

func TestStateFidelityWithGRAPEPulse(t *testing.T) {
	// The realized unitary of a simulated GRAPE CX must give state
	// fidelity at or above the process fidelity target.
	sys := hamiltonian.XYTransmon(2, hamiltonian.LinearChain(2))
	sched, _, fid, err := grape.MinimumTimeCtx(context.Background(), sys, quantum.MatCX.Clone(), grape.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	realizedCX, err := EvolveCtx(context.Background(), sys, sched)
	if err != nil {
		t.Fatal(err)
	}
	ideal := []RealizedGate{
		{U: quantum.MatH, Wires: []int{0}},
		{U: quantum.MatCX, Wires: []int{0, 1}},
	}
	realized := []RealizedGate{
		{U: quantum.MatH, Wires: []int{0}},
		{U: realizedCX, Wires: []int{0, 1}},
	}
	f, err := StateFidelity(4, ideal, realized) // embedded in a larger register
	if err != nil {
		t.Fatal(err)
	}
	if f < fid-0.01 {
		t.Errorf("state fidelity %g far below process fidelity %g", f, fid)
	}
}

func TestStateFidelityErrors(t *testing.T) {
	if _, err := StateFidelity(2, []RealizedGate{{U: quantum.MatH, Wires: []int{0}}}, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	bad := []RealizedGate{{U: quantum.MatCX, Wires: []int{0}}}
	if _, err := StateFidelity(2, bad, bad); err == nil {
		t.Error("wire/dim mismatch should fail")
	}
}

func TestIdleDephasingNoGaps(t *testing.T) {
	// Back-to-back pulses on one qubit: no idle, factor 1.
	tl, err := pulse.BuildTimeline([][]int{{0}, {0}, {0}}, []float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if f := IdleDephasing(tl, 1, 1000); f != 1 {
		t.Errorf("gapless chain factor %g", f)
	}
}

func TestIdleDephasingWithGap(t *testing.T) {
	// Qubit 1 waits while qubit 0 works: {0,1} → {0} → {0,1}.
	tl, err := pulse.BuildTimeline([][]int{{0, 1}, {0}, {0, 1}}, []float64{10, 100, 10})
	if err != nil {
		t.Fatal(err)
	}
	// Qubit 1: window 120, busy 20 → idle 100.
	want := math.Exp(-100.0 / 1000)
	if f := IdleDephasing(tl, 2, 1000); math.Abs(f-want) > 1e-12 {
		t.Errorf("factor %g, want %g", f, want)
	}
	// Untouched qubits contribute nothing.
	if f := IdleDephasing(tl, 5, 1000); math.Abs(f-want) > 1e-12 {
		t.Error("unused qubits should not add idle time")
	}
	// A non-positive t2 turns the dephasing channel off.
	if f := IdleDephasing(tl, 2, 0); f != 1 {
		t.Errorf("t2=0: factor %g, want 1 (channel off)", f)
	}
}

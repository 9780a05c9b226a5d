package noise

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"paqoc/internal/quantum"
	"paqoc/internal/statevec"
)

// nisq is a NISQ-era coherence regime in dt (the default device profile's
// T1Dt/T2Dt).
var nisq = Params{T1: 40000, T2: 20000}

func TestNewDensityBounds(t *testing.T) {
	if _, err := NewDensity(0); err == nil {
		t.Error("0 qubits should fail")
	}
	if _, err := NewDensity(MaxQubits + 1); err == nil {
		t.Error("oversized register should fail")
	}
	d, err := NewDensity(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Trace()-1) > 1e-12 || math.Abs(d.Purity()-1) > 1e-12 {
		t.Error("initial state should be pure with unit trace")
	}
}

func TestUnitaryEvolutionMatchesStatevector(t *testing.T) {
	// Without noise, the density matrix is |ψ⟩⟨ψ| of the statevector run.
	rng := rand.New(rand.NewSource(5))
	d, _ := NewDensity(3)
	s, _ := statevec.NewState(3)
	for i := 0; i < 10; i++ {
		a := rng.Intn(3)
		b := (a + 1 + rng.Intn(2)) % 3
		if err := d.ApplyUnitary(quantum.MatCX, []int{a, b}); err != nil {
			t.Fatal(err)
		}
		if err := s.ApplyUnitary(quantum.MatCX, []int{a, b}); err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyUnitary(quantum.MatH, []int{a}); err != nil {
			t.Fatal(err)
		}
		if err := s.ApplyUnitary(quantum.MatH, []int{a}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := d.StateFidelity(s.Amps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1) > 1e-9 {
		t.Errorf("noiseless density run deviates from statevector: fidelity %g", f)
	}
}

func TestAmplitudeDampingDecaysExcitedState(t *testing.T) {
	d, _ := NewDensity(1)
	d.ApplyUnitary(quantum.MatX, []int{0}) // |1>
	p := Params{T1: 1000, T2: 0}
	if err := d.Idle(1000, p); err != nil { // one T1
		t.Fatal(err)
	}
	// P(|1>) should be e^{-1}.
	if got := d.Probability(1); math.Abs(got-math.Exp(-1)) > 1e-9 {
		t.Errorf("P(1) = %g, want e^-1", got)
	}
	if math.Abs(d.Trace()-1) > 1e-9 {
		t.Error("trace not preserved")
	}
}

func TestDephasingKillsCoherence(t *testing.T) {
	d, _ := NewDensity(1)
	d.ApplyUnitary(quantum.MatH, []int{0}) // |+>
	if math.Abs(real(d.Rho.At(0, 1))-0.5) > 1e-12 {
		t.Fatal("coherence setup wrong")
	}
	if err := d.Idle(2000, Params{T2: 1000}); err != nil {
		t.Fatal(err)
	}
	// Off-diagonal decays, populations stay 1/2 each.
	if math.Abs(real(d.Rho.At(0, 0))-0.5) > 1e-9 {
		t.Error("dephasing changed populations")
	}
	if math.Abs(real(d.Rho.At(0, 1))) > 0.25 {
		t.Errorf("coherence %g should have decayed well below 0.5", real(d.Rho.At(0, 1)))
	}
	if d.Purity() > 0.99 {
		t.Error("state should be mixed after dephasing")
	}
}

func TestKrausChannelsAreTracePreserving(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, _ := NewDensity(2)
		d.ApplyUnitary(quantum.MatH, []int{0})
		d.ApplyUnitary(quantum.MatCX, []int{0, 1})
		g := rng.Float64()
		if err := d.ApplyKraus(AmplitudeDamping(g), rng.Intn(2)); err != nil {
			return false
		}
		if err := d.ApplyKraus(PhaseDamping(rng.Float64()), rng.Intn(2)); err != nil {
			return false
		}
		return math.Abs(d.Trace()-1) < 1e-9 && d.Purity() <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRunSequentialBellWithNoise(t *testing.T) {
	gates := []TimedGate{
		{U: quantum.MatH, Wires: []int{0}, Duration: 24},
		{U: quantum.MatCX, Wires: []int{0, 1}, Duration: 80},
	}
	ideal, _ := statevec.NewState(2)
	ideal.ApplyUnitary(quantum.MatH, []int{0})
	ideal.ApplyUnitary(quantum.MatCX, []int{0, 1})

	noiseless, err := RunSequential(2, gates, Params{})
	if err != nil {
		t.Fatal(err)
	}
	f0, _ := noiseless.StateFidelity(ideal.Amps)
	if math.Abs(f0-1) > 1e-9 {
		t.Errorf("noiseless fidelity %g", f0)
	}

	noisy, err := RunSequential(2, gates, nisq)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := noisy.StateFidelity(ideal.Amps)
	if f1 >= f0 || f1 < 0.9 {
		t.Errorf("noisy fidelity %g outside expected band (below %g, above 0.9)", f1, f0)
	}
}

func TestLongerPulsesHurtMore(t *testing.T) {
	// The mechanism behind the paper's latency→fidelity story: the same
	// circuit with longer pulse durations must have lower fidelity.
	mk := func(scale float64) float64 {
		gates := []TimedGate{
			{U: quantum.MatH, Wires: []int{0}, Duration: 24 * scale},
			{U: quantum.MatCX, Wires: []int{0, 1}, Duration: 80 * scale},
			{U: quantum.MatCX, Wires: []int{1, 2}, Duration: 80 * scale},
		}
		ideal, _ := statevec.NewState(3)
		for _, g := range gates {
			ideal.ApplyUnitary(g.U, g.Wires)
		}
		d, err := RunSequential(3, gates, nisq)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := d.StateFidelity(ideal.Amps)
		return f
	}
	short, long := mk(1), mk(5)
	if long >= short {
		t.Errorf("5× longer pulses should hurt fidelity: %g vs %g", long, short)
	}
}

func TestPhysicalityT2CappedByT1(t *testing.T) {
	// With T2 = 2·T1 exactly, pure dephasing vanishes.
	if got := dephasingProb(100, Params{T1: 500, T2: 1000}); got != 0 {
		t.Errorf("dephasing rate should be zero at T2 = 2T1, got %g", got)
	}
	if got := dephasingProb(100, Params{T1: 500, T2: 400}); got <= 0 {
		t.Error("dephasing expected for T2 < 2T1")
	}
}

func TestApplyErrors(t *testing.T) {
	d, _ := NewDensity(2)
	if err := d.ApplyUnitary(quantum.MatCX, []int{0}); err == nil {
		t.Error("dim mismatch should fail")
	}
	if err := d.ApplyKraus(AmplitudeDamping(0.1), 5); err == nil {
		t.Error("bad qubit should fail")
	}
	if _, err := d.StateFidelity(make([]complex128, 3)); err == nil {
		t.Error("length mismatch should fail")
	}
}

func BenchmarkRunSequential6Qubits(b *testing.B) {
	var gates []TimedGate
	for i := 0; i < 5; i++ {
		gates = append(gates, TimedGate{U: quantum.MatCX, Wires: []int{i, i + 1}, Duration: 80})
	}
	p := nisq
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSequential(6, gates, p); err != nil {
			b.Fatal(err)
		}
	}
}

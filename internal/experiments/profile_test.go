package experiments

import (
	"testing"

	"paqoc/internal/bench"
	"paqoc/internal/device"
)

// paperProfileWith returns a hand-made copy of the default 5×5 backend,
// changed by mutate.
func paperProfileWith(name string, mutate func(*device.Profile)) *device.Profile {
	def := device.Default()
	p := &device.Profile{
		Name:              name,
		NewTopology:       def.NewTopology,
		DtNanoseconds:     def.DtNanoseconds,
		MuMaxGHz:          def.MuMaxGHz,
		SingleQubitFactor: def.SingleQubitFactor,
		T1Dt:              def.T1Dt,
		T2Dt:              def.T2Dt,
	}
	mutate(p)
	return p
}

// TestTableIIFollowsProfileT2: the quick Table II dephases at the
// platform profile's T2Dt, so a backend with half the coherence time
// reports a lower fidelity for every method.
func TestTableIIFollowsProfileT2(t *testing.T) {
	all := TableIIBenches
	TableIIBenches = []string{"bb84"}
	t.Cleanup(func() { TableIIBenches = all })

	base, err := TableII(DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	short, err := TableII(PlatformFor(paperProfileWith("short-t2", func(p *device.Profile) { p.T2Dt /= 2 })))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods {
		b, s := base[0].Fidelity[m], short[0].Fidelity[m]
		if !(s < b) {
			t.Errorf("%s: fidelity %.6f at T2/2, want below %.6f at the default T2", m, s, b)
		}
	}
}

// TestFig14FollowsProfile: Fig. 14 compiles under the platform profile's
// control bounds. Halving the coupling bound lengthens every two-qubit
// pulse, and the modelled generation cost grows with pulse length.
func TestFig14FollowsProfile(t *testing.T) {
	spec, ok := bench.ByName("rd32_270")
	if !ok {
		t.Fatal("missing benchmark rd32_270")
	}
	specs := []bench.Spec{spec}
	base, err := Fig14(DefaultPlatform(), specs)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Fig14(PlatformFor(paperProfileWith("slow-coupler", func(p *device.Profile) { p.MuMaxGHz /= 2 })), specs)
	if err != nil {
		t.Fatal(err)
	}
	b, s := base.Points[0].CompileCost, slow.Points[0].CompileCost
	if s < 1.1*b {
		t.Errorf("compile cost %.2f s at half the coupling bound, want well above %.2f s", s, b)
	}
}

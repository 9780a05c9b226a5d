package experiments

import (
	"math"
	"testing"
)

// tableIINoisyPins pins the density-matrix Table II fidelity for every
// (bench, method) on the default platform, captured before the coherence
// times moved onto device.Profile.
var tableIINoisyPins = []struct {
	bench, method string
	fidelity      float64
}{
	{"4gt10-v1_81", "accqoc_n3d3", 0.901568042394703},
	{"4gt10-v1_81", "accqoc_n3d5", 0.9225787961043763},
	{"4gt10-v1_81", "paqoc_m0", 0.9732531800784603},
	{"4gt10-v1_81", "paqoc_mtuned", 0.9732531800784603},
	{"4gt10-v1_81", "paqoc_minf", 0.9731785192419747},
	{"decod24-v1_41", "accqoc_n3d3", 0.9184678776954212},
	{"decod24-v1_41", "accqoc_n3d5", 0.9262391709441362},
	{"decod24-v1_41", "paqoc_m0", 0.974375189388076},
	{"decod24-v1_41", "paqoc_mtuned", 0.974375189388076},
	{"decod24-v1_41", "paqoc_minf", 0.974375189388076},
	{"hwb4_49", "accqoc_n3d3", 0.8218136491375857},
	{"hwb4_49", "accqoc_n3d5", 0.8389537667763128},
	{"hwb4_49", "paqoc_m0", 0.9323515704968258},
	{"hwb4_49", "paqoc_mtuned", 0.9323968620981378},
	{"hwb4_49", "paqoc_minf", 0.932409475923057},
	{"rd32_270", "accqoc_n3d3", 0.9364245157386215},
	{"rd32_270", "accqoc_n3d5", 0.9516666487167375},
	{"rd32_270", "paqoc_m0", 0.9659517362868804},
	{"rd32_270", "paqoc_mtuned", 0.9630814692466644},
	{"rd32_270", "paqoc_minf", 0.9630814692466644},
	{"bb84", "accqoc_n3d3", 0.9885011669125787},
	{"bb84", "accqoc_n3d5", 0.9907724971996583},
	{"bb84", "paqoc_m0", 0.992221909057426},
	{"bb84", "paqoc_mtuned", 0.992221909057426},
	{"bb84", "paqoc_minf", 0.992221909057426},
	{"simon", "accqoc_n3d3", 0.8360215859445606},
	{"simon", "accqoc_n3d5", 0.8696733405474956},
	{"simon", "paqoc_m0", 0.9476415301744942},
	{"simon", "paqoc_mtuned", 0.9246817516079546},
	{"simon", "paqoc_minf", 0.9246817516079546},
}

// TestTableIINoisyShape runs the density-matrix T1/T2 Table II and asserts
// the paper's ranking: a paqoc variant is best on every benchmark.
func TestTableIINoisyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("density-matrix sweep skipped in -short mode")
	}
	rows, err := TableIINoisy(DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(TableIIBenches) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		base := r.Fidelity["accqoc_n3d3"]
		best := ""
		bestF := -1.0
		for m, f := range r.Fidelity {
			if math.IsNaN(f) {
				continue
			}
			if f <= 0 || f > 1 {
				t.Errorf("%s/%s: fidelity %g out of range", r.Bench, m, f)
			}
			if f > bestF {
				best, bestF = m, f
			}
		}
		if best == "" {
			t.Fatalf("%s: no method fit the density-matrix budget", r.Bench)
		}
		if best == "accqoc_n3d3" || best == "accqoc_n3d5" {
			t.Errorf("%s: baseline %s won (%.4f vs paqoc_m0 %.4f); paper has paqoc best everywhere",
				r.Bench, best, bestF, r.Fidelity["paqoc_m0"])
		}
		if !math.IsNaN(base) && r.Fidelity["paqoc_m0"] < base {
			t.Errorf("%s: paqoc_m0 below accqoc_n3d3", r.Bench)
		}
	}
	got := map[[2]string]float64{}
	for _, r := range rows {
		for m, f := range r.Fidelity {
			got[[2]string{r.Bench, m}] = f
		}
	}
	if len(got) != len(tableIINoisyPins) {
		t.Errorf("%d (bench, method) fidelities, want %d", len(got), len(tableIINoisyPins))
	}
	for _, w := range tableIINoisyPins {
		if f := got[[2]string{w.bench, w.method}]; f != w.fidelity {
			t.Errorf("%s/%s: fidelity %.17g, want %.17g", w.bench, w.method, f, w.fidelity)
		}
	}
}

package experiments

import (
	"bytes"
	"strings"
	"testing"

	"paqoc/internal/bench"
)

// subset is a fast, representative slice of Table I used by the shape
// tests; the full sweep runs in cmd/paqoc-bench and the root benchmarks.
func subset(t testing.TB) []bench.Spec {
	t.Helper()
	var specs []bench.Spec
	for _, n := range []string{"rd32_270", "bv", "qaoa", "simon", "qft"} {
		s, ok := bench.ByName(n)
		if !ok {
			t.Fatalf("missing benchmark %s", n)
		}
		specs = append(specs, s)
	}
	return specs
}

// sweep runs the subset once per test binary invocation.
var sweepCache []BenchRow

func sweep(t *testing.T) []BenchRow {
	t.Helper()
	if sweepCache != nil {
		return sweepCache
	}
	rows, err := DefaultPlatform().RunAll(subset(t))
	if err != nil {
		t.Fatal(err)
	}
	sweepCache = rows
	return rows
}

func TestFig2Shape(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if r.MergedLatency >= r.HLatency+r.CXLatency {
		t.Errorf("merged %g not below stitched %g", r.MergedLatency, r.HLatency+r.CXLatency)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "merged") {
		t.Error("Print output malformed")
	}
}

func TestFig6Observations(t *testing.T) {
	r, err := Fig6(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 50 {
		t.Fatalf("only %d samples", len(r.Points))
	}
	// Observation 1: every point at or below the diagonal (the paper's
	// Fig. 6 shows all points below).
	if r.BelowDiagonal < len(r.Points)*99/100 {
		t.Errorf("only %d/%d samples below the diagonal", r.BelowDiagonal, len(r.Points))
	}
	// Observation 2: mean latency grows with qubit count.
	m1, ok1 := r.MeanLatencyByQubits[1]
	m2, ok2 := r.MeanLatencyByQubits[2]
	if ok1 && ok2 && m1 >= m2 {
		t.Errorf("Obs 2 violated: 1q mean %.1f ≥ 2q mean %.1f", m1, m2)
	}
	if m3, ok := r.MeanLatencyByQubits[3]; ok && ok2 && m2 >= m3 {
		t.Errorf("Obs 2 violated: 2q mean %.1f ≥ 3q mean %.1f", m2, m3)
	}
	var buf bytes.Buffer
	r.CSV(&buf)
	if !strings.HasPrefix(buf.String(), "sum_latency_dt,") {
		t.Error("CSV header missing")
	}
}

func TestFig10LatencyShape(t *testing.T) {
	rows := sweep(t)
	wins := 0
	var sumNorm float64
	for _, row := range rows {
		base := row.find("accqoc_n3d3").Latency
		m0 := row.find("paqoc_m0").Latency
		if m0 <= base {
			wins++
		}
		sumNorm += m0 / base
	}
	if wins < len(rows)-1 {
		t.Errorf("paqoc_m0 beats accqoc_n3d3 on only %d/%d benchmarks", wins, len(rows))
	}
	if mean := sumNorm / float64(len(rows)); mean > 0.9 {
		t.Errorf("mean normalized latency %.3f, expected a clear reduction (paper: 0.46)", mean)
	}
	var buf bytes.Buffer
	Fig10(&buf, rows)
	if !strings.Contains(buf.String(), "circuit latency") {
		t.Error("Fig10 print malformed")
	}
}

func TestFig11CompileShape(t *testing.T) {
	rows := sweep(t)
	// paqoc(M=inf) must be cheaper than accqoc_n3d3 on average, and never
	// slower than accqoc_n3d5 on average (the paper's ordering).
	var infSum, d5Sum float64
	for _, row := range rows {
		base := row.find("accqoc_n3d3").CompileCost
		infSum += row.find("paqoc_minf").CompileCost / base
		d5Sum += row.find("accqoc_n3d5").CompileCost / base
	}
	n := float64(len(rows))
	if infSum/n > 1.05 {
		t.Errorf("paqoc_minf mean compile %.3f, expected below accqoc_n3d3", infSum/n)
	}
	if infSum/n > d5Sum/n {
		t.Errorf("paqoc_minf (%.3f) should be cheaper than accqoc_n3d5 (%.3f)", infSum/n, d5Sum/n)
	}
	var buf bytes.Buffer
	Fig11(&buf, rows)
	if !strings.Contains(buf.String(), "compilation time") {
		t.Error("Fig11 print malformed")
	}
}

func TestFig12ESPShape(t *testing.T) {
	rows := sweep(t)
	var sum float64
	for _, row := range rows {
		base := row.find("accqoc_n3d3").ESP
		m0 := row.find("paqoc_m0").ESP
		if m0 < base*0.999 {
			t.Errorf("%s: paqoc_m0 ESP %.4f below baseline %.4f", row.Bench, m0, base)
		}
		sum += m0 / base
	}
	if mean := sum / float64(len(rows)); mean < 1.01 {
		t.Errorf("mean ESP improvement %.3f, expected > 1 (paper: 1.27)", mean)
	}
}

func TestFig13DepthLuck(t *testing.T) {
	r, err := Fig13(DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalIdioms == 0 {
		t.Fatal("no CPHASE idioms in qaoa")
	}
	if r.CapturedN3D3 <= r.CapturedN3D5 {
		t.Errorf("depth-3 captured %d, depth-5 %d; paper says depth-3 wins on qaoa",
			r.CapturedN3D3, r.CapturedN3D5)
	}
}

func TestFig14Scaling(t *testing.T) {
	// A size-spread family (RevLib-style circuits dedup little, so cost
	// tracks size) exposes the near-linear scaling of Fig. 14.
	var specs []bench.Spec
	for _, n := range []string{"rd32_270", "4gt10-v1_81", "hwb4_49", "ham7_104", "majority_239"} {
		s, _ := bench.ByName(n)
		specs = append(specs, s)
	}
	r, err := Fig14(DefaultPlatform(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.Slope <= 0 {
		t.Errorf("compile time should grow with circuit size, slope %g", r.Slope)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "linear fit") {
		t.Error("Fig14 print malformed")
	}
}

func TestTableIInventory(t *testing.T) {
	rows := TableI()
	if len(rows) != 17 {
		t.Fatalf("Table I has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredAll == 0 {
			t.Errorf("%s: empty circuit", r.Name)
		}
	}
	var buf bytes.Buffer
	PrintTableI(&buf, rows)
	if !strings.Contains(buf.String(), "qft") {
		t.Error("TableI print malformed")
	}
}

// tableIIPins pins the default platform's quick Table II fidelity for
// every (bench, method), captured before the coherence times moved onto
// device.Profile. The values are pure functions of the analytical model,
// so they must match bit for bit.
var tableIIPins = []struct {
	bench, method string
	fidelity      float64
}{
	{"4gt10-v1_81", "accqoc_n3d3", 0.4367504912285905},
	{"4gt10-v1_81", "accqoc_n3d5", 0.5515446585080845},
	{"4gt10-v1_81", "paqoc_m0", 0.7881653413495994},
	{"4gt10-v1_81", "paqoc_mtuned", 0.7881653413495994},
	{"4gt10-v1_81", "paqoc_minf", 0.7998430857699635},
	{"decod24-v1_41", "accqoc_n3d3", 0.6501816422540915},
	{"decod24-v1_41", "accqoc_n3d5", 0.7325328963172538},
	{"decod24-v1_41", "paqoc_m0", 0.8635803659661527},
	{"decod24-v1_41", "paqoc_mtuned", 0.8635803659661527},
	{"decod24-v1_41", "paqoc_minf", 0.8635803659661527},
	{"hwb4_49", "accqoc_n3d3", 0.2698728210253383},
	{"hwb4_49", "accqoc_n3d5", 0.36932937716757797},
	{"hwb4_49", "paqoc_m0", 0.6919539501007131},
	{"hwb4_49", "paqoc_mtuned", 0.6919376024049506},
	{"hwb4_49", "paqoc_minf", 0.6774748996175609},
	{"rd32_270", "accqoc_n3d3", 0.6355006276857526},
	{"rd32_270", "accqoc_n3d5", 0.7348883351831678},
	{"rd32_270", "paqoc_m0", 0.8438043738863651},
	{"rd32_270", "paqoc_mtuned", 0.8492926382048447},
	{"rd32_270", "paqoc_minf", 0.8492926382048447},
	{"bb84", "accqoc_n3d3", 0.9339545062893817},
	{"bb84", "accqoc_n3d5", 0.9431018859584328},
	{"bb84", "paqoc_m0", 0.9524831374524156},
	{"bb84", "paqoc_mtuned", 0.9524831374524156},
	{"bb84", "paqoc_minf", 0.9524831374524156},
	{"simon", "accqoc_n3d3", 0.8406735281861378},
	{"simon", "accqoc_n3d5", 0.8815562119834589},
	{"simon", "paqoc_m0", 0.9207293893996495},
	{"simon", "paqoc_mtuned", 0.9191908372525209},
	{"simon", "paqoc_minf", 0.9191908372525209},
}

func TestTableIIFidelityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II sweep in -short mode")
	}
	rows, err := TableII(DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(TableIIBenches) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		best := ""
		bestF := -1.0
		for m, f := range r.Fidelity {
			if f <= 0 || f > 1 {
				t.Errorf("%s/%s: fidelity %g out of range", r.Bench, m, f)
			}
			if f > bestF {
				best, bestF = m, f
			}
		}
		// Table II: a paqoc variant wins on every benchmark.
		if !strings.HasPrefix(best, "paqoc") {
			t.Errorf("%s: best method %s (%.4f); paper has paqoc best everywhere", r.Bench, best, bestF)
		}
	}
	got := map[[2]string]float64{}
	for _, r := range rows {
		for m, f := range r.Fidelity {
			got[[2]string{r.Bench, m}] = f
		}
	}
	if len(got) != len(tableIIPins) {
		t.Errorf("%d (bench, method) fidelities, want %d", len(got), len(tableIIPins))
	}
	for _, w := range tableIIPins {
		if f := got[[2]string{w.bench, w.method}]; f != w.fidelity {
			t.Errorf("%s/%s: fidelity %.17g, want %.17g", w.bench, w.method, f, w.fidelity)
		}
	}
	var buf bytes.Buffer
	PrintTableII(&buf, rows)
	if !strings.Contains(buf.String(), "%") {
		t.Error("TableII print malformed")
	}
}

func TestTableIIIMinedPatterns(t *testing.T) {
	rows, err := TableIII(DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]TableIIIRow{}
	for _, r := range rows {
		got[r.Bench] = r
	}
	// bv and qft: the SWAP idiom (three concatenated CXs on one pair) must
	// be the top pattern (Table III).
	for _, name := range []string{"bv", "qft"} {
		r := got[name]
		if len(r.Patterns) == 0 {
			t.Fatalf("%s: no patterns", name)
		}
		top := r.Patterns[0]
		if top.Signature != "cx:0,1|cx:1,0|cx:0,1" {
			t.Errorf("%s: top pattern %q, want the 3-CX SWAP idiom", name, top.Signature)
		}
	}
	// qaoa: the CPHASE idiom (cx; rz; cx) must be the top pattern.
	qaoa := got["qaoa"]
	if len(qaoa.Patterns) == 0 || !strings.Contains(qaoa.Patterns[0].Signature, "rz(") ||
		qaoa.Patterns[0].GateCount != 3 {
		t.Errorf("qaoa top pattern should be the CPHASE idiom, got %+v", qaoa.Patterns)
	}
	// adder and supre have frequent patterns too.
	for _, name := range []string{"adder", "supre"} {
		if len(got[name].Patterns) == 0 {
			t.Errorf("%s: no patterns mined", name)
		}
	}
}

func TestAblationRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep skipped in -short mode")
	}
	rows, err := DefaultPlatform().Ablation("simon")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 7 {
		t.Fatalf("only %d ablation rows", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Config] = r
		if r.Latency <= 0 || r.ESP <= 0 || r.Blocks <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Config, r)
		}
	}
	def := byName["default (M=0,k=1,maxN=3)"]
	n2 := byName["maxN=2"]
	if n2.Latency < def.Latency {
		t.Errorf("maxN=2 latency %.0f should not beat maxN=3 %.0f", n2.Latency, def.Latency)
	}
	if n2.Blocks < def.Blocks {
		t.Errorf("maxN=2 should leave at least as many blocks")
	}
}

// TestMiningReplay: the offline-mining replay is deterministic, hits stay
// zero in the cold first round, and the hit rate grows monotonically as
// idle windows pre-generate more of the recurring patterns.
func TestMiningReplay(t *testing.T) {
	recs, err := MiningReplay(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d rounds, want 3", len(recs))
	}
	if recs[0].PregenHits != 0 {
		t.Errorf("round 1 hit a pre-generated pattern before any idle window: %+v", recs[0])
	}
	if recs[2].PregenHits == 0 {
		t.Error("no pregen hits by round 3 despite a recurring workload")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].HitRatePct < recs[i-1].HitRatePct {
			t.Errorf("hit rate fell: round %d %.1f%% -> round %d %.1f%%",
				i, recs[i-1].HitRatePct, i+1, recs[i].HitRatePct)
		}
		if recs[i].Pregenerated < recs[i-1].Pregenerated {
			t.Errorf("pregen set shrank between rounds %d and %d", i, i+1)
		}
	}
	// Determinism: a second run reproduces the records exactly.
	again, err := MiningReplay(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if recs[i] != again[i] {
			t.Fatalf("round %d not deterministic:\n  %+v\n  %+v", i+1, recs[i], again[i])
		}
	}
}

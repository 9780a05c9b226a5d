package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"paqoc/internal/api"
	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/obs"
)

// benchmarkSpec is the part of BENCHMARK.json the self-tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeEmitsEveryMetric runs every workload briefly, untraced and
// traced, and checks the result line carries every metric BENCHMARK.json
// names, with its unit, and that the outputs were all correct.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := &config{workload: w.Name, seed: 7, seconds: 5, trace: trace, workers: 2, warmFrac: serveWarmFrac, smoke: true, outDir: t.TempDir()}
				var out bytes.Buffer
				if err := execute(cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v; report:\n%s", res, out.String())
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
						t.Errorf("metric %s = %g, want finite and non-negative", m.Name, got.Value)
					case !trace && got.Value == 0:
						t.Errorf("end-to-end metric %s = 0, want positive", m.Name)
					}
				}
			})
		}
	}
}

// TestChecksCatchCorruptedBlockCircuit plants a wrong gate in a compiled
// block circuit and expects the statevector check to fail it.
func TestChecksCatchCorruptedBlockCircuit(t *testing.T) {
	prof, err := device.Lookup(device.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	circuits, err := routeAll(context.Background(), nil, prof, sweepInputs(3, true))
	if err != nil {
		t.Fatal(err)
	}
	rc := circuits[0]
	sr := &sweepRun{prof: prof}
	for _, method := range []string{"paqoc_m0", "accqoc_n3d3"} {
		good := sr.compileOne(context.Background(), rc, method, nil)
		r := newResult()
		checkSweep(r, []routedCircuit{rc}, [][]*compiled{{good}}, 3)
		if r.failed != 0 {
			t.Fatalf("%s: correct compile failed the check: %v", method, r.notes)
		}
		bad := sr.compileOne(context.Background(), rc, method, nil)
		b := bad.blocks.Blocks[len(bad.blocks.Blocks)/2]
		b.Gates = append(b.Gates, circuit.Gate{Name: "x", Qubits: []int{b.Qubits[0]}})
		r = newResult()
		checkSweep(r, []routedCircuit{rc}, [][]*compiled{{bad}}, 3)
		if r.failed == 0 {
			t.Errorf("%s: corrupted block circuit passed the check", method)
		}
	}
}

// TestChecksCatchPulseBelowTarget weakens one GRAPE pulse and expects the
// pulsesim replay to fail it.
func TestChecksCatchPulseBelowTarget(t *testing.T) {
	prof, err := device.Lookup(device.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{workers: 2, smoke: true}
	phys, _, err := routeOne(context.Background(), nil, prof, grapeInput(1, true))
	if err != nil {
		t.Fatal(err)
	}
	gr := &grapeRun{cfg: cfg, prof: prof, phys: phys}
	c := gr.compile(gr.newGenerator(), "compile.cold")
	if c.err != nil {
		t.Fatal(c.err)
	}
	target := grapeConfig(true).FidelityTarget
	r := newResult()
	replayPulses(r, prof, "good", c.res.Blocks, target)
	if r.failed != 0 {
		t.Fatalf("correct pulses failed the replay: %v", r.notes)
	}
	for _, b := range c.res.Blocks.Blocks {
		if b.NumQubits() < 2 {
			continue
		}
		sched := b.Gen.Schedule.Clone()
		for _, ch := range sched.Amps {
			for i := range ch {
				ch[i] *= 0.5
			}
		}
		b.Gen.Schedule = sched
		break
	}
	r = newResult()
	replayPulses(r, prof, "weakened", c.res.Blocks, target)
	if r.failed == 0 {
		t.Error("a pulse at half amplitude passed the replay")
	}
}

// TestChecksCatchWarmMiss expects a warm response with a gate generated
// afresh, or below its fidelity target, to fail the serve check.
func TestChecksCatchWarmMiss(t *testing.T) {
	in := &instance{poolLatency: []float64{100}}
	ok := served{warm: true, st: api.JobStatus{JobID: "j", State: api.StateDone, Result: &api.Result{
		LatencyDt: 100, ESP: 0.9,
		Gates: []api.GateResult{{Gate: "g", Fidelity: 0.995, CacheHit: true}},
	}}}
	if err := in.checkServed(ok); err != nil {
		t.Fatalf("correct response failed: %v", err)
	}
	miss := ok
	res := *ok.st.Result
	res.Gates = []api.GateResult{{Gate: "g", Fidelity: 0.995}}
	miss.st.Result = &res
	if in.checkServed(miss) == nil {
		t.Error("warm response with a DB miss passed")
	}
	low := ok
	res2 := *ok.st.Result
	res2.Gates = []api.GateResult{{Gate: "g", Fidelity: 0.98, CacheHit: true}}
	low.st.Result = &res2
	if in.checkServed(low) == nil {
		t.Error("gate below its fidelity target passed")
	}
}

// TestSeedReproducesInputs checks each workload's generated inputs are a
// function of the seed alone.
func TestSeedReproducesInputs(t *testing.T) {
	sweep := func(seed int64) string {
		var b strings.Builder
		for _, nc := range sweepInputs(seed, false) {
			fmt.Fprintf(&b, "%s %d %s", nc.name, nc.symmetry, nc.logical)
		}
		return b.String()
	}
	grapeIn := func(seed int64) string {
		nc := grapeInput(seed, false)
		return fmt.Sprintf("%d %s", nc.symmetry, nc.logical)
	}
	serve := func(seed int64) string {
		var b strings.Builder
		for _, c := range servePoolCircuits(servePool) {
			b.WriteString(c.String())
		}
		rng := rand.New(rand.NewSource(seed))
		for _, a := range schedule(rng, serveNominalRate, 5e9, servePool, serveWarmFrac) {
			fmt.Fprintf(&b, "%d %v %d %s\n", a.at, a.warm, a.pool, a.body)
		}
		return b.String()
	}
	for name, gen := range map[string]func(int64) string{"sweep": sweep, "grape": grapeIn, "serve": serve} {
		if gen(11) != gen(11) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		differs := false
		for s := int64(12); s < 20 && !differs; s++ {
			differs = gen(s) != gen(11)
		}
		if !differs {
			t.Errorf("%s: seeds 12..19 all gave seed 11's inputs", name)
		}
	}
}

// TestScheduleCarriesWarmShare checks every schedule carries the warm
// share exactly, whatever the seed.
func TestScheduleCarriesWarmShare(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sched := schedule(rand.New(rand.NewSource(seed)), serveNominalRate, 10e9, servePool, serveWarmFrac)
		warm := 0
		for _, a := range sched {
			if a.warm {
				warm++
			}
		}
		if want := int(math.Round(float64(len(sched)) * serveWarmFrac)); warm != want {
			t.Errorf("seed %d: %d of %d requests warm, want %d", seed, warm, len(sched), want)
		}
	}
}

// TestDiffSnapWindow checks counters and histogram quantiles are taken
// over the measurement window only.
func TestDiffSnapWindow(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c").Add(5)
	h := reg.Histogram("h", obs.LatencyBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(1)
	}
	before := reg.Snapshot()
	reg.Counter("c").Add(3)
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	d := diffSnap(before, reg.Snapshot())
	if d.Counters["c"] != 3 {
		t.Errorf("counter diff %d, want 3", d.Counters["c"])
	}
	if p50 := d.Histograms["h"].P50; p50 < 50 || p50 > 100 {
		t.Errorf("window p50 %g, want near 100", p50)
	}
}

package main

import (
	"context"
	"slices"
	"sync"
	"time"

	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// timedGen is the benchmark's pulse.Generator wrapper: it records a span
// per call and the duration of every call that generated a pulse rather
// than hitting the pulse DB.
type timedGen struct {
	inner pulse.Generator
	rec   *recorder

	mu     sync.Mutex
	missMs []float64
}

func (g *timedGen) GenerateCtx(ctx context.Context, cg *pulse.CustomGate, fidelity float64) (*pulse.Generated, error) {
	ctx, sp := g.rec.start(ctx, "pulse.generate")
	t0 := time.Now()
	out, err := g.inner.GenerateCtx(ctx, cg, fidelity)
	d := time.Since(t0)
	sp.end()
	if err == nil && !out.CacheHit {
		g.mu.Lock()
		g.missMs = append(g.missMs, ms(d))
		g.mu.Unlock()
	}
	return out, err
}

// PulseDB keeps the wrapped generator's DB visible to the compiler, so
// APA-basis protection behaves as without the wrapper.
func (g *timedGen) PulseDB() *pulse.DB {
	if p, ok := g.inner.(pulse.DBProvider); ok {
		return p.PulseDB()
	}
	return nil
}

// drain returns and clears the recorded generation times.
func (g *timedGen) drain() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.missMs
	g.missMs = nil
	return out
}

// layerUnits lists every per-layer metric with its unit. A workload that
// does not exercise a layer reports 0 for its metrics.
var layerUnits = map[string]string{
	"latency.probes":                "count",
	"latency.db_hit_frac":           "frac",
	"paqoc.initial_blocks_ms":       "ms",
	"paqoc.optimize_ms":             "ms",
	"paqoc.merge.candidates":        "count",
	"paqoc.merge.rounds":            "count",
	"paqoc.merge.applied":           "count",
	"paqoc.merge.cache_hit_frac":    "frac",
	"paqoc.apply_apa_ms":            "ms",
	"paqoc.emit_ms":                 "ms",
	"gc.alloc_mb":                   "MB",
	"gc.cycles":                     "count",
	"gc.cpu_frac":                   "frac",
	"mining.ms":                     "ms",
	"mining.subcircuits_enumerated": "count",
	"mining.patterns":               "count",
	"accqoc.compile_ms":             "ms",
	"accqoc.groups":                 "count",
	"route.ms":                      "ms",
	"route.swaps":                   "count",
	"grape.pulse_ms.p50":            "ms",
	"grape.pulse_ms.p90":            "ms",
	"grape.generated":               "count",
	"grape.iterations_per_pulse":    "count",
	"grape.expm":                    "count",
	"grape.probes_per_pulse":        "count",
	"grape.probe_prop_reuse":        "count",
	"grape.warm_start_frac":         "frac",
	"pulse.hit_frac":                "frac",
	"pulse.lookup_ms.p50":           "ms",
	"pulse.store_ms.p50":            "ms",
	"pulse.nearest_scanned":         "count",
	"pulse.nearest_pruned":          "count",
	"pulse.db_dedups":               "count",
	"pulse.entries":                 "count",
	"pulsesim.esp_evals":            "count",
	"server.queue_wait_ms.p50":      "ms",
	"server.queue_wait_ms.p99":      "ms",
	"server.job_ms.p50":             "ms",
	"server.http_overhead_ms.p50":   "ms",
	"server.rejected":               "count",
	"engine.active_workers.peak":    "count",
	"serve.gen_lag_ms.max":          "ms",
	"trace.overhead_frac":           "frac",
}

// setLayer records one per-layer metric under its registered unit.
func (r *result) setLayer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unregistered layer metric " + name)
	}
	r.layers[name] = metric{v, unit}
}

// fillLayerDefaults reports 0 for every layer metric the workload left
// unset, so each traced run carries the full per-layer set.
func (r *result) fillLayerDefaults() {
	for name, unit := range layerUnits {
		if _, ok := r.layers[name]; !ok {
			r.layers[name] = metric{0, unit}
		}
	}
}

// selfSpanMetrics maps the program's pipeline spans to the layer metrics
// that report their self time.
var selfSpanMetrics = map[string]string{
	"paqoc.initial_blocks": "paqoc.initial_blocks_ms",
	"paqoc.optimize":       "paqoc.optimize_ms",
	"paqoc.apply_apa":      "paqoc.apply_apa_ms",
	"paqoc.emit":           "paqoc.emit_ms",
	"paqoc.mine":           "mining.ms",
}

func selfSpanNames() map[string]bool {
	out := map[string]bool{}
	for n := range selfSpanMetrics {
		out[n] = true
	}
	return out
}

// addSelfTimes records accumulated span self times as layer metrics.
func (r *result) addSelfTimes(self map[string]time.Duration) {
	for span, name := range selfSpanMetrics {
		r.setLayer(name, r.layers[name].Value+ms(self[span]))
	}
}

// stageHist returns the paqoc.stage_ms histogram of one stage.
func stageHist(s *obs.Snapshot, stage string) obs.HistogramSnapshot {
	for _, se := range s.HistogramVecs[obs.StageMetric].Series {
		if len(se.Values) == 1 && se.Values[0] == stage {
			return se.HistogramSnapshot
		}
	}
	return obs.HistogramSnapshot{}
}

// programLayers derives the per-layer metrics the program's own counters
// and histograms carry.
func (r *result) programLayers(s *obs.Snapshot) {
	c := func(n string) float64 { return float64(s.Counters[n]) }
	r.setLayer("latency.probes", c("latency.model.probes"))
	r.setLayer("latency.db_hit_frac", ratio(c("latency.model.db_hits"), c("latency.model.probes")))
	r.setLayer("paqoc.merge.candidates", c("paqoc.merge.candidates"))
	r.setLayer("paqoc.merge.rounds", c("paqoc.merge.rounds"))
	r.setLayer("paqoc.merge.applied", c("paqoc.merge.applied"))
	r.setLayer("paqoc.merge.cache_hit_frac", ratio(c("paqoc.merge.cache_hits"), c("paqoc.merge.candidates")))
	r.setLayer("mining.subcircuits_enumerated", c("mining.subcircuits_enumerated"))
	r.setLayer("mining.patterns", c("mining.patterns"))
	r.setLayer("accqoc.groups", c("accqoc.groups"))
	gen := c("grape.generated")
	r.setLayer("grape.generated", gen)
	r.setLayer("grape.iterations_per_pulse", ratio(c("grape.iterations"), gen))
	r.setLayer("grape.expm", c("grape.expm"))
	r.setLayer("grape.probes_per_pulse", ratio(c("grape.binsearch.probes"), gen))
	r.setLayer("grape.probe_prop_reuse", c("grape.probe_prop_reuse"))
	r.setLayer("grape.warm_start_frac", ratio(c("grape.warm_starts"), gen))
	r.setLayer("pulse.lookup_ms.p50", stageHist(s, "db_lookup").P50)
	r.setLayer("pulse.store_ms.p50", stageHist(s, "db_store").P50)
	r.setLayer("pulse.nearest_scanned", c("pulse.nearest_scanned"))
	r.setLayer("pulse.nearest_pruned", c("pulse.nearest_pruned"))
	r.setLayer("pulse.db_dedups", c("pulse.db_dedups"))
	r.setLayer("pulsesim.esp_evals", c("pulsesim.esp_evals"))
	r.setLayer("engine.active_workers.peak", s.Gauges["engine.active_workers.peak"])
}

// diffSnap returns the counters and histograms of after minus before:
// the program's work during a measurement window of a long-lived
// registry. Gauges are taken from after.
func diffSnap(before, after *obs.Snapshot) *obs.Snapshot {
	out := &obs.Snapshot{
		Counters:      map[string]int64{},
		Gauges:        after.Gauges,
		Histograms:    map[string]obs.HistogramSnapshot{},
		HistogramVecs: map[string]obs.LabeledHistogramSnapshot{},
	}
	for n, v := range after.Counters {
		out.Counters[n] = v - before.Counters[n]
	}
	for n, h := range after.Histograms {
		out.Histograms[n] = diffHist(before.Histograms[n], h)
	}
	for n, fam := range after.HistogramVecs {
		d := obs.LabeledHistogramSnapshot{Labels: fam.Labels}
		for _, se := range fam.Series {
			var prev obs.HistogramSnapshot
			for _, b := range before.HistogramVecs[n].Series {
				if slices.Equal(b.Values, se.Values) {
					prev = b.HistogramSnapshot
				}
			}
			d.Series = append(d.Series, obs.HistogramSeries{Values: se.Values, HistogramSnapshot: diffHist(prev, se.HistogramSnapshot)})
		}
		out.HistogramVecs[n] = d
	}
	return out
}

// diffHist subtracts bucket counts and recomputes the quantiles. The
// window's minimum is unknown, so quantiles are clamped to [0, max].
func diffHist(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	h := obs.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Max: after.Max}
	for i, b := range after.Buckets {
		if i < len(before.Buckets) {
			b.Count -= before.Buckets[i].Count
		}
		h.Buckets = append(h.Buckets, b)
	}
	if h.Count > 0 {
		h.P50, h.P90, h.P99 = h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	}
	return h
}

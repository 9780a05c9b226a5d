// Command perfbench is PAQOC's end-to-end benchmark. One invocation runs
// one workload and prints a human-readable report followed, as its last
// line, by one JSON result object:
//
//	go run . --workload sweep --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	sweep  Table I circuits routed on xy-grid-5x5, every circuit compiled
//	       by the five compared methods with the analytical model.
//	grape  rd32_270 compiled with real GRAPE from a fresh pulse DB, then
//	       recompiled against the warm DB.
//	serve  an in-process paqoc-server behind httptest, driven by a seeded
//	       open-loop arrival schedule of warm and cold compile requests.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics and writes a Chrome trace of
// the benchmark's own spans under .bench_build/.
//
// The benchmark drives the program only through public package functions
// and checks every output outside the timed region.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workers is the number of goroutines of load (nproc).
	workers int
	// warmFrac is the share of serve's requests that are warm.
	warmFrac float64
	// smoke shrinks every workload's input set and step lengths; the
	// self-tests set it so a full pass takes seconds.
	smoke bool
	// outDir receives the trace file (relative to the working directory).
	outDir string
}

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run produced.
type result struct {
	attempted, failed int
	// e2e holds the end-to-end metrics (--trace 0); layers the per-layer
	// ones (--trace 1).
	e2e, layers map[string]metric
	// notes are report lines: percentile substitutions, sample counts,
	// per-rate rows, failures.
	notes []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed or incorrect operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.note("FAIL: "+format, args...)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*config) (*result, error){
	"sweep": runSweep,
	"grape": runGrape,
	"serve": runServe,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{workers: runtime.NumCPU(), warmFrac: serveWarmFrac, outDir: ".bench_build"}
	fs.StringVar(&cfg.workload, "workload", "", "workload: sweep, grape or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.Float64Var(&cfg.warmFrac, "serve-warm-frac", serveWarmFrac, "share of serve's requests that are warm (to try another mix)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = *traceFlag == 1
	return execute(cfg, stdout)
}

// execute runs one workload and prints its report and result line.
func execute(cfg *config, stdout io.Writer) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want sweep, grape or serve)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if cfg.warmFrac < 0 || cfg.warmFrac > 1 {
		return errors.New("--serve-warm-frac must be in [0, 1]")
	}
	h := hostInfo()
	res, err := fn(cfg)
	if err != nil {
		return err
	}
	metrics := res.e2e
	if cfg.trace {
		metrics = res.layers
	}
	printReport(stdout, cfg, h, res, metrics)
	line, err := json.Marshal(resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// printReport writes the human-readable part of the output: the host
// block, every metric by name with its unit, the error rate and notes.
func printReport(w io.Writer, cfg *config, h host, res *result, metrics map[string]metric) {
	hj, _ := json.Marshal(h)
	fmt.Fprintf(w, "host: %s\n", hj)
	fmt.Fprintf(w, "workload: %s  seed: %d  seconds: %g  trace: %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	rate := 0.0
	if res.attempted > 0 {
		rate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.6g frac (%d failed of %d attempted)\n", "error_rate", rate, res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

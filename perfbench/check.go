package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"paqoc/internal/circuit"
	"paqoc/internal/critical"
	"paqoc/internal/device"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/pulse"
	"paqoc/internal/pulsesim"
	"paqoc/internal/statevec"
)

// maxCheckWidth bounds the statevector check: wider compacted circuits
// are not simulated (2^16 amplitudes keeps a run's checks to seconds).
const maxCheckWidth = 16

// stateTolerance is the state infidelity a correct compilation may show
// from floating-point reassociation of the same gates.
const stateTolerance = 1e-7

// replayTolerance absorbs the rounding difference between GRAPE's own
// propagators and an independent replay of the same schedule.
const replayTolerance = 1e-9

// simulate runs a circuit, compacted onto its used qubits, from a seeded
// random product state. It returns the final state and the used qubits.
func simulate(c *circuit.Circuit, seed int64) (*statevec.State, []int, error) {
	compact, _ := c.Compact()
	used := c.UsedQubits()
	if compact.NumQubits > maxCheckWidth {
		return nil, used, nil
	}
	s, err := statevec.NewState(compact.NumQubits)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < compact.NumQubits; q++ {
		g := circuit.Gate{Name: "u3", Qubits: []int{q}, Params: []float64{
			math.Pi * rng.Float64(), 2 * math.Pi * rng.Float64(), 2 * math.Pi * rng.Float64()}}
		if err := s.ApplyGate(g); err != nil {
			return nil, nil, err
		}
	}
	if err := s.ApplyCircuit(compact); err != nil {
		return nil, nil, err
	}
	return s, used, nil
}

// equivalent reports whether a compiled block circuit implements the
// physical circuit, given the physical circuit's simulated state.
// Circuits wider than maxCheckWidth pass unchecked (checked=false).
func equivalent(want *statevec.State, wantUsed []int, bc *critical.BlockCircuit, seed int64) (checked bool, err error) {
	if want == nil {
		return false, nil
	}
	flat := bc.Flatten()
	got, used, err := simulate(flat, seed)
	if err != nil {
		return true, err
	}
	if fmt.Sprint(used) != fmt.Sprint(wantUsed) {
		return true, fmt.Errorf("compiled circuit acts on qubits %v, physical circuit on %v", used, wantUsed)
	}
	f, err := statevec.Fidelity(want, got)
	if err != nil {
		return true, err
	}
	if f < 1-stateTolerance {
		return true, fmt.Errorf("state fidelity %.9f against the physical circuit", f)
	}
	return true, nil
}

// checkSweep verifies every compile outside the timed region: no error,
// plausible quality, statevector equivalence of each (circuit, method)'s
// first block circuit, and every later compile of the same pair, cold or
// warm, reproducing it exactly.
func checkSweep(r *result, circuits []routedCircuit, passes [][]*compiled, seed int64) {
	states := map[string]*statevec.State{}
	usedBy := map[string][]int{}
	for _, rc := range circuits {
		s, used, err := simulate(rc.phys, seed)
		if err != nil {
			r.fail("%s: simulating the physical circuit: %v", rc.name, err)
			continue
		}
		states[rc.name], usedBy[rc.name] = s, used
	}
	checked := 0
	first := map[string]*compiled{}
	for pi, pass := range passes {
		for _, c := range pass {
			key := c.circuit + "/" + c.method
			r.attempted++
			if c.err != nil {
				r.fail("%s: %v", key, c.err)
				continue
			}
			if !(c.latency > 0) || !(c.esp > 0 && c.esp <= 1) {
				r.fail("%s: implausible latency %g dt or ESP %g", key, c.latency, c.esp)
				continue
			}
			f, seen := first[key]
			if !seen {
				first[key] = c
				ok, err := equivalent(states[c.circuit], usedBy[c.circuit], c.blocks, seed)
				if err != nil {
					r.fail("%s: %v", key, err)
				}
				if ok {
					checked++
				}
				continue
			}
			if c.latency != f.latency || c.esp != f.esp {
				r.fail("%s: pass %d gave latency %g dt, ESP %g; first compile gave %g dt, %g", key, pi, c.latency, c.esp, f.latency, f.esp)
			}
		}
	}
	r.note("statevector-checked %d of %d (circuit, method) results (compacted width <= %d)", checked, len(first), maxCheckWidth)
}

// couplings maps a customized gate's physical qubits onto the local
// coupling pairs of its Hamiltonian, as the GRAPE generator does.
func couplings(prof *device.Profile, cg *pulse.CustomGate) [][2]int {
	n := cg.NumQubits()
	var pairs [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if prof.Topology().Connected(cg.Qubits[a], cg.Qubits[b]) {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	if len(pairs) == 0 && n > 1 {
		pairs = hamiltonian.LinearChain(n)
	}
	return pairs
}

// replayPulses re-evolves every block's schedule on its device
// Hamiltonian with pulsesim, independently of GRAPE's own fidelity
// report, and fails each block whose realized gate misses the target.
func replayPulses(r *result, prof *device.Profile, label string, bc *critical.BlockCircuit, target float64) {
	for i, b := range bc.Blocks {
		r.attempted++
		if err := replayBlock(prof, b, target); err != nil {
			r.fail("%s block %d (%s): %v", label, i, b.Custom().Describe(), err)
		}
	}
}

func replayBlock(prof *device.Profile, b *critical.Block, target float64) error {
	if b.Gen == nil || b.Gen.Schedule == nil {
		return fmt.Errorf("no pulse schedule")
	}
	cg := b.Custom()
	u, err := cg.Unitary()
	if err != nil {
		return err
	}
	sys := prof.System(cg.NumQubits(), couplings(prof, cg))
	realized, err := pulsesim.EvolveCtx(context.Background(), sys, b.Gen.Schedule)
	if err != nil {
		return err
	}
	if f := pulsesim.GateFidelity(u, realized); f < target-replayTolerance {
		return fmt.Errorf("replayed fidelity %.6f below target %.6f", f, target)
	}
	return nil
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paqoc/internal/obs"
)

// recorder keeps the benchmark's own spans in memory: one per call into
// a layer, each with its parent and the trace (one compile or request)
// it belongs to. A nil recorder records nothing.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	ID, Parent, Trace uint64
	Name              string
	Start, End        time.Duration
	Attrs             map[string]any
}

type span struct {
	r     *recorder
	rec   spanRec
	begin time.Time
}

type spanKey struct{}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span under the context's current span; a span with no
// parent starts a new trace.
func (r *recorder) start(ctx context.Context, name string) (context.Context, *span) {
	if r == nil {
		return ctx, nil
	}
	now := time.Now()
	s := &span{r: r, begin: now, rec: spanRec{ID: r.ids.Add(1), Name: name, Start: now.Sub(r.epoch)}}
	if p, ok := ctx.Value(spanKey{}).(*span); ok && p != nil {
		s.rec.Parent, s.rec.Trace = p.rec.ID, p.rec.Trace
	} else {
		s.rec.Trace = s.rec.ID
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

func (s *span) attr(k string, v any) {
	if s == nil {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = map[string]any{}
	}
	s.rec.Attrs[k] = v
}

// end closes the span and returns its duration (0 for a nil span).
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	s.rec.End = time.Since(s.r.epoch)
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.rec)
	s.r.mu.Unlock()
	return s.rec.End - s.rec.Start
}

// total sums the durations of the recorded spans with the given name.
func (r *recorder) total(name string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var t time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return t
}

// writeChrome writes the spans in Chrome trace-event format, one track
// per trace, with the host block as metadata.
func (r *recorder) writeChrome(path string, h host) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	evs := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Attrs {
			args[k] = v
		}
		evs = append(evs, event{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Trace, Args: args,
		})
	}
	r.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "metadata": map[string]any{"host": h}})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes adds, per span name in names, the self time of the program's
// own spans from one compile's tracer: each span's duration minus the
// part of its interval covered by its direct children.
func selfTimes(spans []obs.SpanRecord, names map[string]bool, into map[string]time.Duration) {
	for _, p := range spans {
		if !names[p.Name] {
			continue
		}
		pEnd := p.Start + p.Dur
		var iv [][2]time.Duration
		for _, c := range spans {
			rest, ok := strings.CutPrefix(c.Path, p.Path+"/")
			if !ok || strings.Contains(rest, "/") || c.Start < p.Start || c.Start+c.Dur > pEnd {
				continue
			}
			iv = append(iv, [2]time.Duration{c.Start, c.Start + c.Dur})
		}
		into[p.Name] += p.Dur - covered(iv)
	}
}

// covered is the length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			if x[1] > curE {
				curE = x[1]
			}
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

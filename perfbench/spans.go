package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"snvmm/internal/telemetry/trace"
)

// The benchmark records its spans from its own files, around the calls it
// makes into each layer; the program under test runs untraced. Subsystem
// names the layer (the package whose public function the span wraps), and
// "bench" marks the benchmark's own request and probe roots.

func meta(layer, name string) *trace.SpanMeta {
	return &trace.SpanMeta{Subsystem: layer, Name: name}
}

// spanner starts the top span of a unit of work: a root of tr when the work
// is its own trace (a request, a pass), or a child of parent when a probe
// runs the work. The zero spanner records nothing.
type spanner struct {
	tr     *trace.Tracer
	parent trace.Context
}

func (s spanner) start(m *trace.SpanMeta) trace.Span {
	if s.parent.Enabled() {
		return s.parent.Start(m)
	}
	return s.tr.Root(m)
}

// timed runs f inside a child span of rc and returns f's duration; the
// span's own cost stays outside it.
func timed(rc trace.Context, m *trace.SpanMeta, f func()) time.Duration {
	sp := rc.Start(m)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End(0, 0)
	return d
}

// layers lists every layer the traced run attributes self time to.
var layers = []string{"bench", "snvmm", "core", "xbar", "prng", "poe", "nist", "sim", "trace"}

// traceRing is the span capacity of a traced run, sized above the spans
// one traced run records so none is overwritten before export.
const traceRing = 1 << 17

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover. Instant events are ignored.
func selfTimes(recs []trace.SpanRecord) map[string]float64 {
	children := make(map[uint64][]int, len(recs))
	for i, r := range recs {
		if r.DurNs >= 0 && r.ParentID != 0 {
			children[r.ParentID] = append(children[r.ParentID], i)
		}
	}
	out := make(map[string]float64)
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, r := range recs {
		if r.DurNs < 0 {
			continue
		}
		lo, hi := r.StartNano, r.StartNano+r.DurNs
		ivs = ivs[:0]
		for _, ci := range children[r.SpanID] {
			c := recs[ci]
			a, b := c.StartNano, c.StartNano+c.DurNs
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, end := int64(0), lo
		for _, v := range ivs {
			if v.lo > end {
				end = v.lo
			}
			if v.hi > end {
				covered += v.hi - end
				end = v.hi
			}
		}
		out[r.Subsystem] += float64(r.DurNs - covered)
	}
	return out
}

// exportTrace writes the tracer's spans as Chrome trace-event JSON to path
// and validates the written file.
func exportTrace(tr *trace.Tracer, path string) error {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, tr.Cap()); err != nil {
		return fmt.Errorf("chrome export: %w", err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		return fmt.Errorf("chrome export: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

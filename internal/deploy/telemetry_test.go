package deploy

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

// TestEngineTelemetryCounts: an observed engine attributes every inference
// to per-layer histograms, counts gather work, and records the arena
// high-water mark — while staying bit-identical to the unobserved engine.
func TestEngineTelemetryCounts(t *testing.T) {
	e := deployTestEngine(41)
	plain := deployTestEngine(41)
	reg := telemetry.NewRegistry()
	obs := e.EnableTelemetry(reg, nil)

	rng := rand.New(rand.NewSource(42))
	x := make([]float32, e.Frames*e.Coeffs)
	const n = 5
	for it := 0; it < n; it++ {
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		sc, cls := e.InferInt(x)
		psc, pcls := plain.InferInt(x)
		if cls != pcls {
			t.Fatalf("observed class %d, plain %d", cls, pcls)
		}
		for j := range sc {
			if sc[j] != psc[j] {
				t.Fatalf("observed scores diverge at %d: %d vs %d", j, sc[j], psc[j])
			}
		}
	}

	if got := obs.Infers.Value(); got != n {
		t.Fatalf("infers = %d, want %d", got, n)
	}
	if got := reg.LatencyHistogram("engine.infer.ns").Count(); got != n {
		t.Fatalf("infer histogram count = %d, want %d", got, n)
	}
	if len(obs.LayerNs) != len(e.Convs)+2 {
		t.Fatalf("got %d layer histograms, want %d", len(obs.LayerNs), len(e.Convs)+2)
	}
	for i, h := range obs.LayerNs {
		if h.Count() != n {
			t.Fatalf("layer %s observed %d times, want %d", obs.LayerNames[i], h.Count(), n)
		}
	}
	if obs.Gathers.Value() <= 0 {
		t.Fatal("gather-add visits not counted")
	}
	if obs.ArenaBytes.Value() <= 0 {
		t.Fatal("arena high-water mark not recorded")
	}
	if got := obs.TwoPhaseRows.Value(); got != 0 {
		t.Fatalf("two-phase rows = %d on an engine whose rows all fit the fused kernels", got)
	}
}

// TestEngineTelemetryFaults: failed frames (wrong length, batch or safe
// path) land in the fault counter.
func TestEngineTelemetryFaults(t *testing.T) {
	e := deployTestEngine(43)
	reg := telemetry.NewRegistry()
	obs := e.EnableTelemetry(reg, nil)

	if _, _, err := e.InferSafe(make([]float32, 3)); err == nil {
		t.Fatal("short frame accepted")
	}
	res := e.InferBatch([][]float32{make([]float32, 1), make([]float32, int(e.Frames*e.Coeffs))})
	if res[0].Err == nil || res[1].Err != nil {
		t.Fatalf("batch errs = [%v %v]", res[0].Err, res[1].Err)
	}
	if got := obs.Faults.Value(); got != 2 {
		t.Fatalf("faults = %d, want 2", got)
	}
}

// TestEngineTraceNestedSpans: a traced inference exports engine.infer with
// one child span per layer, all on the root's track and contained in its
// interval — the chrome://tracing contract.
func TestEngineTraceNestedSpans(t *testing.T) {
	e := deployTestEngine(44)
	tr := telemetry.NewTracer(0)
	e.EnableTelemetry(telemetry.NewRegistry(), tr)
	x := make([]float32, e.Frames*e.Coeffs)
	e.InferInt(x)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// One root + len(Convs) conv spans + pool + tree.
	want := 1 + len(e.Convs) + 2
	if len(out.TraceEvents) != want {
		t.Fatalf("got %d spans, want %d", len(out.TraceEvents), want)
	}
	var rootTs, rootEnd float64
	var rootTid int64
	children := 0
	for _, ev := range out.TraceEvents {
		if ev.Name == "engine.infer" {
			rootTs, rootEnd, rootTid = ev.Ts, ev.Ts+ev.Dur, ev.Tid
		}
	}
	for _, ev := range out.TraceEvents {
		if ev.Name == "engine.infer" {
			continue
		}
		children++
		if ev.Tid != rootTid {
			t.Fatalf("span %q on tid %d, root on %d", ev.Name, ev.Tid, rootTid)
		}
		if ev.Ts < rootTs || ev.Ts+ev.Dur > rootEnd+0.001 {
			t.Fatalf("span %q [%f,%f] escapes root [%f,%f]", ev.Name, ev.Ts, ev.Ts+ev.Dur, rootTs, rootEnd)
		}
	}
	if children != want-1 {
		t.Fatalf("got %d child spans, want %d", children, want-1)
	}
}

// deployTestEngine builds the standard synthetic paper-shape engine.
func deployTestEngine(seed int64) *Engine {
	return SyntheticEngine(seed, 0.35)
}

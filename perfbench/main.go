// Command perfbench is the repository's end-to-end benchmark. It drives the
// keyword-spotting system through its public Go API only, from one
// generator goroutine, on three seeded workloads:
//
//	serve-lanes     open-loop serving sessions on the shared batch lanes
//	serve-hopcache  open-loop serving sessions on the incremental hop cache
//	clip-classify   closed-loop WAV clip classification (kws-infer -wav)
//
// Every output is checked against a reference. With -trace 0 the last line
// of standard output holds the end-to-end metrics; with -trace 1 a separate
// traced run holds the per-layer ledger. BENCHMARK.json names every
// workload and metric; layers.json says where each metric is measured and
// which end-to-end metric each layer metric should move.
//
// Usage (from the repository root; run.py builds and runs it):
//
//	python3 perfbench/run.py --workload serve-lanes --seed 1 --seconds 15 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// layersJSON holds what BENCHMARK.json has no keys for, by workload and
// metric name: each workload's traffic, each metric's meaning, where each
// layer metric is measured and which end-to-end metrics it should move, the
// reported-only metrics, and what is out of scope.
//
//go:embed layers.json
var layersJSON []byte

// metricDef is one metric: name, unit, direction and (end-to-end) bound
// from BENCHMARK.json, the rest from layers.json.
type metricDef struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Better  string   `json:"better"`
	Bound   float64  `json:"bound,omitempty"`
	Meaning string   `json:"meaning,omitempty"`
	Layer   string   `json:"layer,omitempty"`
	At      string   `json:"at,omitempty"`
	Moves   []string `json:"moves,omitempty"`
	HeavyOn string   `json:"heavy_on,omitempty"`
	LightOn string   `json:"light_on,omitempty"`
}

type workloadDef struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Traffic string `json:"traffic"`
}

type catalogue struct {
	Workloads  []workloadDef `json:"workloads"`
	OutOfScope []string      `json:"out_of_scope"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	Reported   []metricDef   `json:"reported"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// loadCatalogue reads the workloads and metrics from the BENCHMARK.json at
// benchPath and completes each from layers.json, which must describe
// exactly the same names.
func loadCatalogue(benchPath string) (catalogue, error) {
	var c, ext struct {
		Workloads  json.RawMessage `json:"workloads"`
		OutOfScope []string        `json:"out_of_scope"`
		EndToEnd   json.RawMessage `json:"end_to_end"`
		Reported   []metricDef     `json:"reported"`
		PerLayer   json.RawMessage `json:"per_layer"`
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return catalogue{}, err
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return catalogue{}, fmt.Errorf("%s: %w", benchPath, err)
	}
	if err := json.Unmarshal(layersJSON, &ext); err != nil {
		return catalogue{}, fmt.Errorf("layers.json: %w", err)
	}
	cat := catalogue{OutOfScope: ext.OutOfScope, Reported: ext.Reported}
	if err := complete("workloads", c.Workloads, ext.Workloads, &cat.Workloads); err != nil {
		return catalogue{}, err
	}
	if err := complete("end_to_end", c.EndToEnd, ext.EndToEnd, &cat.EndToEnd); err != nil {
		return catalogue{}, err
	}
	if err := complete("per_layer", c.PerLayer, ext.PerLayer, &cat.PerLayer); err != nil {
		return catalogue{}, err
	}
	return cat, nil
}

// complete decodes the BENCHMARK.json list base into *dst and fills each
// entry's other fields from the layers.json object ext, keyed by name.
func complete[T workloadDef | metricDef](kind string, base, ext json.RawMessage, dst *[]T) error {
	var names []struct{ Name string }
	var extra map[string]json.RawMessage
	if err := json.Unmarshal(base, &names); err != nil {
		return fmt.Errorf("BENCHMARK.json %s: %w", kind, err)
	}
	if err := json.Unmarshal(ext, &extra); err != nil {
		return fmt.Errorf("layers.json %s: %w", kind, err)
	}
	if len(extra) != len(names) {
		return fmt.Errorf("%s: BENCHMARK.json names %d, layers.json %d", kind, len(names), len(extra))
	}
	if err := json.Unmarshal(base, dst); err != nil {
		return fmt.Errorf("BENCHMARK.json %s: %w", kind, err)
	}
	for i, n := range names {
		e, ok := extra[n.Name]
		if !ok {
			return fmt.Errorf("%s: layers.json does not describe %s", kind, n.Name)
		}
		// Decoding onto the entry keeps the fields the extras lack.
		if err := json.Unmarshal(e, &(*dst)[i]); err != nil {
			return fmt.Errorf("layers.json %s %s: %w", kind, n.Name, err)
		}
	}
	return nil
}

// result is one run's outcome.
type result struct {
	Correct    bool
	Attempted  int
	Failed     int
	Mismatches int
	Metrics    map[string]float64
	Closure    *closure // traced runs only
	Spans      []span
	Detail     map[string]any
}

func main() {
	workload := flag.String("workload", "", "serve-lanes | serve-hopcache | clip-classify")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the run report and spans")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, outDir string) error {
	cat, err := loadCatalogue("BENCHMARK.json") // run from the repository root
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	prov := hostProvenance(".", 100*time.Millisecond) // run from the repository root
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))

	var res *result
	switch {
	case workload == "clip-classify":
		res, err = runClip(seed, seconds, traced)
	case serveSpecs[workload] != (serveSpec{}):
		res, err = runServe(serveSpecs[workload], seed, seconds, traced)
	default:
		return fmt.Errorf("unknown -workload %q", workload)
	}
	if err != nil {
		return err
	}

	defs := cat.EndToEnd
	if traced {
		defs = cat.PerLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && traced {
			v = 0 // the workload does not exercise this layer
			res.Metrics[d.Name] = v
		} else if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, d.Name)
		}
		if math.IsNaN(v) && !traced {
			return fmt.Errorf("%s: metric %s has no samples", workload, d.Name)
		}
		metrics[d.Name] = map[string]any{"value": safe(v), "unit": d.Unit}
	}

	if err := writeReport(outDir, workload, seed, traced, prov, cat, res); err != nil {
		return err
	}
	reported := map[string]map[string]any{}
	for _, d := range cat.Reported {
		if v, ok := res.Metrics[d.Name]; ok && !traced {
			reported[d.Name] = map[string]any{"value": safe(v), "unit": d.Unit}
		}
	}
	detail, _ := json.Marshal(map[string]any{"workload": workload, "mismatches": res.Mismatches,
		"reported": reported, "closure": res.Closure, "detail": res.Detail})
	fmt.Println(string(detail))
	if res.Attempted == 0 {
		// Nothing was measured; report one failed op rather than success.
		res.Correct, res.Attempted, res.Failed = false, 1, 1
	}
	final, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}

// writeReport keeps the whole run — provenance, metric map, detail and, when
// traced, every span — in outDir.
func writeReport(outDir, workload string, seed int64, traced bool, prov provenance, cat catalogue, res *result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("report dir: %w", err)
	}
	mode := "e2e"
	if traced {
		mode = "traced"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", strings.ReplaceAll(workload, "/", "_"), seed, mode)
	f, err := os.Create(filepath.Join(outDir, name))
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	safeMetrics := make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		safeMetrics[k] = safe(v)
	}
	werr := json.NewEncoder(f).Encode(map[string]any{
		"workload": workload, "seed": seed, "traced": traced, "provenance": prov,
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"mismatches": res.Mismatches, "metrics": safeMetrics, "closure": res.Closure,
		"detail": res.Detail, "catalogue": cat, "spans": res.Spans,
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("report: %w", werr)
	}
	return nil
}

package main

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/stream"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(append([]float64(nil), xs...), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Failed ops are +Inf: they sort last and make any rank that reaches them infinite.
	withFail := []float64{1, 2, inf, 3}
	if got := percentile(append([]float64(nil), withFail...), 0.5); got != 2.5 {
		t.Errorf("p50 with one failure = %v, want 2.5", got)
	}
	if got := percentile(append([]float64(nil), withFail...), 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with one failure in four = %v, want +Inf", got)
	}
	if got := fracAbove(withFail, 2); got != 0.5 {
		t.Errorf("fracAbove = %v, want 0.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSessionAccount(t *testing.T) {
	const cl = 10
	start := time.Unix(1000, 0)
	due := func(k int) time.Time { return start.Add(time.Duration(k) * time.Millisecond) }
	inWindow := func(k int) bool { return k >= 2 }
	ref := []event{
		{Sample: 10, Class: 1, Score: 0.5}, // chunk 0: before the window
		{Sample: 30, Class: 2, Score: 0.5}, // chunk 2: delivered 5 ms after due
		{Sample: 41, Class: 3, Score: 0.5}, // chunk 4: never arrives
		{Sample: 60, Class: 4, Score: 0.5}, // chunk 5: arrives, but its chunk was refused once
		{Sample: 70, Class: 5, Score: 0.5}, // chunk 6: delivered 1 ms after due
	}
	got := []delivery{
		{ev: ref[0], at: due(0)},
		{ev: ref[1], at: due(2).Add(5 * time.Millisecond)},
		{ev: ref[3], at: due(5)},
		{ev: ref[4], at: due(6).Add(time.Millisecond)},
		{ev: event{Sample: 80, Class: 1, Score: 0.1}, at: due(7)},  // no reference event: mismatch
		{ev: event{Sample: 30, Class: 9, Score: 0.5}, at: due(3)},  // wrong class: mismatch
		{ev: event{Sample: 70, Class: 5, Score: 0.25}, at: due(6)}, // wrong score: mismatch
	}
	ops, mm := sessionAccount(ref, got, inWindow, due, map[int32]int{5: 1}, cl)
	if mm != 3 {
		t.Errorf("mismatches = %d, want 3", mm)
	}
	if len(ops) != 4 {
		t.Fatalf("attempted = %d, want 4 (the in-window reference events)", len(ops))
	}
	want := []opOutcome{{latMs: 5}, {latMs: inf, failed: true}, {latMs: inf, failed: true}, {latMs: 1}}
	for i, o := range ops {
		if o != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, o, want[i])
		}
	}
}

func TestScheduleOrder(t *testing.T) {
	const n = 7
	hop, per, end := 250*time.Millisecond, 40*time.Millisecond, time.Second
	items := buildSchedule(n, hop, per, end)
	next := make([]int32, n)
	for i, it := range items {
		if i > 0 && it.due < items[i-1].due {
			t.Fatalf("item %d due %v before item %d due %v", i, it.due, i-1, items[i-1].due)
		}
		if it.k != next[it.sess] {
			t.Fatalf("session %d sends chunk %d, want %d", it.sess, it.k, next[it.sess])
		}
		next[it.sess]++
		if want := phase(int(it.sess), n, hop) + time.Duration(it.k)*per; it.due != want || it.due >= end {
			t.Fatalf("session %d chunk %d due %v, want %v before %v", it.sess, it.k, it.due, want, end)
		}
	}
	for i := 0; i < n; i++ {
		p := phase(i, n, hop)
		if p < 0 || p >= hop {
			t.Errorf("phase %d = %v, outside one hop", i, p)
		}
		if want := int32((end - p + per - 1) / per); next[i] != want {
			t.Errorf("session %d sent %d chunks, want %d", i, next[i], want)
		}
	}
}

// TestChunkOfMatchesDetector pins the Event.Sample-to-chunk mapping that
// latency is measured from: every event must come out of the Push call of
// the chunk chunkOf names.
func TestChunkOfMatchesDetector(t *testing.T) {
	eng := deploy.SyntheticEngine(engineSeed, density)
	in := testInputs(t, false)
	for _, incremental := range []bool{false, true} {
		cls := stream.NewEngineClassifier(eng)
		det := stream.NewDetector(hookConfig(incremental), cls, 0, 1)
		buf := make([]float64, chunkLen)
		events := 0
		for k := int32(0); k < 60; k++ {
			in.fill(buf, 0, k)
			for _, e := range det.Push(buf) {
				events++
				if got := chunkOf(e.Sample, chunkLen); got != int(k) {
					t.Errorf("incremental=%v: event at sample %d came from chunk %d, chunkOf says %d",
						incremental, e.Sample, k, got)
				}
			}
		}
		cls.Close()
		if events < 5 {
			t.Errorf("incremental=%v: %d events from 2.4 s of audio; the hook config should fire every hop", incremental, events)
		}
	}
}

// refusingDetector is a session stand-in that refuses the calls listed in
// refuse (by call number) and feeds the rest to a detector.
type refusingDetector struct {
	det    *stream.Detector
	calls  int
	refuse map[int]bool
	events []event
}

func (r *refusingDetector) accept() bool {
	r.calls++
	return !r.refuse[r.calls-1]
}

func (r *refusingDetector) Push(x []float64) error {
	if !r.accept() {
		return errRefused
	}
	r.collect(r.det.Push(x))
	return nil
}

func (r *refusingDetector) PushGap(n int) error {
	if !r.accept() {
		return errRefused
	}
	r.collect(r.det.ConcealGap(n))
	return nil
}

func (r *refusingDetector) collect(evs []stream.Event) {
	for _, e := range evs {
		r.events = append(r.events, event{e.Sample, e.Class, e.Score})
	}
}

var errRefused = errors.New("refused")

// TestFeedMirrorsGaps checks that refused chunks become gaps on both sides:
// the reference replay of the accepted-op log equals what the session's
// detector produced from the calls it accepted, and positions never drift.
func TestFeedMirrorsGaps(t *testing.T) {
	eng := deploy.SyntheticEngine(engineSeed, density)
	for _, incremental := range []bool{false, true} {
		in := testInputs(t, incremental)
		cls := stream.NewEngineClassifier(eng)
		target := &refusingDetector{
			det: stream.NewDetector(in.det, cls, 0, 1),
			// Refuse a lone chunk, then a chunk and the gap retried for it.
			refuse: map[int]bool{30: true, 41: true, 42: true},
		}
		f := &feed{}
		const chunks = 70
		for k := int32(0); k < chunks; k++ {
			f.send(target, k, k == 50, chunkLen, func(k int32) []float64 {
				buf := make([]float64, chunkLen)
				in.fill(buf, 0, k)
				return buf
			})
		}
		cls.Close()
		if len(f.refused) != 3 {
			t.Errorf("incremental=%v: refused chunks %v, want 30, 40 and 41", incremental, f.refused)
		}
		if got := samplesIn(f.log, chunkLen) + f.pending; got != chunks*chunkLen {
			t.Errorf("incremental=%v: log covers %d samples, want %d", incremental, got, chunks*chunkLen)
		}
		if !hasGap(f.log) {
			t.Errorf("incremental=%v: log holds no gap", incremental)
		}
		ref := in.replay(eng, 0, f.log)
		if len(ref) == 0 || len(ref) != len(target.events) {
			t.Fatalf("incremental=%v: replay has %d events, session %d", incremental, len(ref), len(target.events))
		}
		for i := range ref {
			if ref[i] != target.events[i] {
				t.Errorf("incremental=%v: event %d replay %+v, session %+v", incremental, i, ref[i], target.events[i])
			}
		}
	}
}

func testInputs(t *testing.T, incremental bool) *serveInputs {
	t.Helper()
	spec := serveSpecs["serve-lanes"]
	if incremental {
		spec = serveSpecs["serve-hopcache"]
	}
	in, err := newServeInputs(spec, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestClosure(t *testing.T) {
	// op 0: whole [0,100] covered by a [0,40] and b [40,98].
	// op 1: whole [200,300] with one part [200,250]: half its time is unattributed.
	// op 2: the parts claim more time than the whole.
	spans := []span{
		{Name: "w", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "a", Start: 0, End: 40, Parent: 0, Op: 0},
		{Name: "b", Start: 40, End: 98, Parent: -1, Op: 0},
		{Name: "x", Start: 0, End: 500, Parent: -1, Op: 0}, // not a part
		{Name: "w", Start: 200, End: 300, Parent: -1, Op: 1},
		{Name: "a", Start: 200, End: 250, Parent: 4, Op: 1},
		{Name: "w", Start: 400, End: 500, Parent: -1, Op: 2},
		{Name: "a", Start: 400, End: 460, Parent: 6, Op: 2},
		{Name: "b", Start: 500, End: 550, Parent: -1, Op: 2},
	}
	parts := []string{"a", "b"}
	only := func(ops ...int64) func(int64) bool {
		return func(op int64) bool { return slices.Contains(ops, op) }
	}
	for _, c := range []struct {
		ops  []int64
		gap  float64
		pass bool
	}{
		{[]int64{0}, 0.02, true},
		{[]int64{0, 1}, 0.26, false},
		{[]int64{2}, -0.1, false},
		{[]int64{3}, 0, false}, // no op: nothing closed
	} {
		got := checkClosure(spans, "w", parts, -0.05, 0.05, only(c.ops...))
		if got.Pass != c.pass || math.Abs(got.Gap-c.gap) > 1e-9 || got.Ops != len(c.ops) && c.pass {
			t.Errorf("closure over ops %v = %+v, want gap %v pass %v", c.ops, got, c.gap, c.pass)
		}
	}
	ls := layerStats(spans, func(op int64) float64 { return float64(op + 1) })
	if a := ls["a"]; a.Calls != 6 || math.Abs(a.TotalS-(40+2*50+3*60)*1e-9) > 1e-15 {
		t.Errorf("layer a = %+v, want 6 weighted calls and 320 ns in total", a)
	}
}

// TestCatalogue checks that layers.json describes every workload and metric
// of BENCHMARK.json, that every workload is implemented, and that every
// layer metric names end-to-end or reported metrics it should move.
func TestCatalogue(t *testing.T) {
	cat, err := loadCatalogue("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cat.Workloads {
		if _, ok := serveSpecs[w.Name]; !ok && w.Name != "clip-classify" {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if w.Why == "" || w.Traffic == "" {
			t.Errorf("workload %s lacks its reason or traffic: %+v", w.Name, w)
		}
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), cat.EndToEnd...), cat.Reported...) {
		known[d.Name] = true
		if d.Unit == "" || d.Meaning == "" {
			t.Errorf("metric %s lacks its unit or meaning: %+v", d.Name, d)
		}
	}
	for _, d := range cat.PerLayer {
		if d.Unit == "" || d.Layer == "" || d.At == "" {
			t.Errorf("layer metric %s lacks its unit, layer or place: %+v", d.Name, d)
		}
		for _, m := range d.Moves {
			if !known[m] {
				t.Errorf("layer metric %s moves %s, which is not an end-to-end or reported metric", d.Name, m)
			}
		}
	}

	// A name layers.json does not describe is refused.
	saved := layersJSON
	defer func() { layersJSON = saved }()
	layersJSON = bytes.Replace(saved, []byte(`"serve.open_ms"`), []byte(`"serve.opened_ms"`), 1)
	if _, err := loadCatalogue("../BENCHMARK.json"); err == nil {
		t.Error("a layers.json that misses serve.open_ms was accepted")
	}
}

func TestSecondClockRates(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	var c secondClock
	cpu := 0.0
	next := func() float64 { return cpu }
	// Three full seconds: 10 ops at 2 ms CPU each, 20 ops at 1 ms, 10 ops at
	// 3 ms; then a 0.2 s tail that must be left out.
	c.tick(at(0), next)
	c.tick(at(0.5), next) // inside the first second: no sample
	cpu = 0.020
	c.tick(at(1), next)
	cpu = 0.040
	c.tick(at(2.001), next)
	cpu = 0.070
	c.tick(at(3), next)
	cpu = 0.5
	c.close(at(3.2), next)
	if len(c.wall) != 5 {
		t.Fatalf("%d samples, want 5", len(c.wall))
	}
	var done []time.Time
	add := func(n int, from, to float64) {
		for i := 0; i < n; i++ {
			done = append(done, at(from+(to-from)*float64(i)/float64(n)))
		}
	}
	add(10, 0, 1)
	add(20, 1, 2)
	add(10, 2.01, 3)
	add(50, 3, 3.2)
	cpuMs, ops := c.rates(done)
	if math.Abs(cpuMs-2) > 1e-9 {
		t.Errorf("median CPU per op = %v ms, want 2", cpuMs)
	}
	if math.Abs(ops-10) > 0.1 {
		t.Errorf("median ops per second = %v, want about 10", ops)
	}
}

// TestWaiterNeverEarly: the generator must never send a chunk before it is
// due, or latency measured from the due time would read low.
func TestWaiterNeverEarly(t *testing.T) {
	w := newWaiter()
	defer w.close()
	for i := 0; i < 50; i++ {
		due := time.Now().Add(time.Duration(50+i*20) * time.Microsecond)
		w.until(due)
		if now := time.Now(); now.Before(due) {
			t.Fatalf("%s waiter woke %v early", w.kind(), due.Sub(now))
		}
	}
	w.until(time.Now().Add(-time.Millisecond)) // past due: returns at once
}

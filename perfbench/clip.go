package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/audio"
	"repro/internal/deploy"
	"repro/internal/dsp"
)

const (
	clipRate     = 16000 // recorded WAV rate, resampled to sampleRate
	clipDistinct = 16    // distinct seeded clips, cycled
	clipWarmup   = 500 * time.Millisecond
	clipGapMax   = 0.05 // share of a clip's wall time that may fall outside its layer spans
)

// clipRef is one distinct clip and its reference output.
type clipRef struct {
	wav    []byte
	class  int
	scores []int32
}

// clipInputs renders the seeded clips as 16 kHz 16-bit WAV bytes and their
// references: the same audio and DSP path, classified by the engine's
// scalar oracle NaiveInt.
func clipInputs(seed int64, eng *deploy.Engine) ([]clipRef, error) {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]clipRef, clipDistinct)
	mfcc := dsp.NewMFCC(dsp.DefaultMFCCConfig(sampleRate))
	for i := range refs {
		var buf bytes.Buffer
		if err := audio.WriteWAV(&buf, speechTrack(rng, 1, clipRate), clipRate); err != nil {
			return nil, fmt.Errorf("rendering clip %d: %w", i, err)
		}
		refs[i].wav = buf.Bytes()
		samples, rate, err := audio.ReadWAV(bytes.NewReader(refs[i].wav))
		if err != nil {
			return nil, fmt.Errorf("reading clip %d: %w", i, err)
		}
		feat := mfcc.Compute(fitSecond(audio.Resample(samples, rate, sampleRate)))
		sc, class := eng.NaiveInt(feat.Data)
		refs[i].scores, refs[i].class = append([]int32(nil), sc...), class
	}
	return refs, nil
}

// fitSecond pads or trims a waveform to one second, as kws-infer does.
func fitSecond(wave []float64) []float64 {
	if len(wave) < sampleRate {
		wave = append(wave, make([]float64, sampleRate-len(wave))...)
	}
	return wave[:sampleRate]
}

// clipLoop classifies clips back to back until the deadline, checking each
// answer against its reference. With a tracer every clip is an op: a root
// span holding audio.read, audio.resample, dsp.featurize and deploy.infer.
type clipLoop struct {
	eng  *deploy.Engine
	mfcc *dsp.MFCC
	refs []clipRef

	latMs      []float64
	done       []time.Time // completion time of each correct clip
	clock      secondClock
	attempted  int
	failed     int
	mismatches int
}

func (c *clipLoop) run(until time.Time, tr *tracer, record bool) {
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(until) {
			break
		}
		if record {
			c.clock.tick(now, cpuSeconds)
		}
		ref := &c.refs[i%len(c.refs)]
		op := int64(c.attempted)
		t0 := time.Now()
		root := tr.begin("clip", -1, op)
		h := tr.begin("audio.read", root, op)
		samples, rate, err := audio.ReadWAV(bytes.NewReader(ref.wav))
		tr.end(h)
		if err != nil {
			tr.end(root)
			if record {
				c.attempted++
				c.failed++
				c.latMs = append(c.latMs, inf)
			}
			continue
		}
		h = tr.begin("audio.resample", root, op)
		wave := fitSecond(audio.Resample(samples, rate, sampleRate))
		tr.end(h)
		h = tr.begin("dsp.featurize", root, op)
		feat := c.mfcc.Compute(wave)
		tr.end(h)
		h = tr.begin("deploy.infer", root, op)
		scores, class := c.eng.InferInt(feat.Data)
		tr.end(h)
		tr.end(root)
		lat := time.Since(t0)
		if !record {
			continue
		}
		c.attempted++
		c.latMs = append(c.latMs, float64(lat)/1e6)
		if class != ref.class || !slices.Equal(scores, ref.scores) {
			c.mismatches++
			continue
		}
		c.done = append(c.done, t0.Add(lat))
	}
	if record {
		c.clock.close(time.Now(), cpuSeconds)
	}
}

// clipPass is one timed closed-loop pass and its end-to-end metrics.
func clipPass(eng *deploy.Engine, refs []clipRef, seconds int, tr *tracer) (*clipLoop, map[string]float64) {
	c := &clipLoop{eng: eng, mfcc: dsp.NewMFCC(dsp.DefaultMFCCConfig(sampleRate)), refs: refs}
	c.run(time.Now().Add(clipWarmup), nil, false)
	c.run(time.Now().Add(time.Duration(seconds)*time.Second), tr, true)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The loop's per-op records grow with throughput; they are left out, so a
	// faster pipeline does not read as a bigger footprint.
	records := uint64(cap(c.latMs))*8 + uint64(cap(c.done))*uint64(unsafe.Sizeof(time.Time{}))
	cpuPerOp, opsPerS := c.clock.rates(c.done)
	return c, map[string]float64{
		"latency_p50_ms": percentile(append([]float64(nil), c.latMs...), 0.5),
		"cpu_ms_per_op":  cpuPerOp,
		"clips_per_s":    opsPerS,
		"heap_mb":        float64(ms.HeapAlloc-records) / 1e6,
		"delivered_frac": 1 - float64(c.failed)/float64(max(c.attempted, 1)),
		"failed_frac":    float64(c.failed) / float64(max(c.attempted, 1)),
	}
}

// clipSetup is the timed set-up: read the engine and run its first
// inference, reps times.
func clipSetup(engBytes []byte, reps int) (*deploy.Engine, setupTimes, error) {
	var eng *deploy.Engine
	var st setupTimes
	for i := 0; i < reps; i++ {
		err := st.measure(func() (err error) {
			if eng, err = deploy.ReadEngine(bytes.NewReader(engBytes)); err != nil {
				return fmt.Errorf("reading engine: %w", err)
			}
			eng.InferInt(make([]float32, int(eng.Frames*eng.Coeffs)))
			return nil
		})
		if err != nil {
			return nil, st, err
		}
	}
	return eng, st, nil
}

func runClip(seed int64, seconds int, traced bool) (*result, error) {
	eb, err := engineBytes()
	if err != nil {
		return nil, err
	}
	eng, st, err := clipSetup(eb, setupReps)
	if err != nil {
		return nil, err
	}
	refs, err := clipInputs(seed, eng)
	if err != nil {
		return nil, err
	}
	c, e2e := clipPass(eng, refs, seconds, nil)
	e2e["setup_s"] = st.setupS()
	res := &result{
		Correct: c.mismatches == 0, Attempted: c.attempted, Failed: c.failed, Mismatches: c.mismatches,
		Detail: map[string]any{"distinct_clips": clipDistinct, "wav_rate": clipRate,
			"latency_samples": len(c.latMs), "latency_p99_ms": safe(percentile(c.latMs, 0.99)),
			"setup": st.detail()},
	}
	if !traced {
		res.Metrics = e2e
		return res, nil
	}

	tr := newTracer()
	tc, te2e := clipPass(eng, refs, seconds, tr)
	res.Correct = res.Correct && tc.mismatches == 0
	res.Mismatches += tc.mismatches
	res.Spans = tr.spans
	m := map[string]float64{}
	all := func(int64) float64 { return 1 }
	ls := layerStats(tr.spans, all)
	perOp := func(name string) float64 {
		if st := ls[name]; st != nil && st.Calls > 0 {
			return st.TotalS / st.Calls * 1e6
		}
		return 0
	}
	m["audio.read_us"] = perOp("audio.read")
	m["audio.resample_us"] = perOp("audio.resample")
	m["dsp.featurize_us"] = perOp("dsp.featurize")
	m["deploy.infer_us"] = perOp("deploy.infer")
	m["dsp.frames_per_op"] = float64(dsp.DefaultMFCCConfig(sampleRate).NumFrames(sampleRate))

	wave := fitSecond(audio.Resample(mustRead(refs[0].wav), clipRate, sampleRate))
	feat := tc.mfcc.Compute(wave).Data
	m["dsp.allocs_per_op"] = testing.AllocsPerRun(20, func() { tc.mfcc.Compute(wave) })
	m["deploy.allocs_per_op"] = testing.AllocsPerRun(20, func() { eng.InferInt(feat) })
	m["deploy.scratch_bytes"] = float64(eng.ScratchBytes())
	m["deploy.model_bytes"] = float64(eng.Size())
	m["serve.latency_p99_ms"] = percentile(append([]float64(nil), tc.latMs...), 0.99)
	m["bench.trace_overhead_latency"] = te2e["latency_p50_ms"]/e2e["latency_p50_ms"] - 1
	m["bench.trace_overhead_cpu"] = te2e["cpu_ms_per_op"]/e2e["cpu_ms_per_op"] - 1
	cl := checkClosure(tr.spans, "clip", []string{"audio.read", "audio.resample", "dsp.featurize", "deploy.infer"},
		0, clipGapMax, func(int64) bool { return true })
	res.Closure = &cl
	m["bench.closure_gap_frac"] = res.Closure.Gap
	res.Correct = res.Correct && res.Closure.Pass
	res.Metrics = m
	return res, nil
}

func mustRead(wav []byte) []float64 {
	s, _, err := audio.ReadWAV(bytes.NewReader(wav))
	if err != nil {
		panic(err) // the clip was read once already while building its reference
	}
	return s
}

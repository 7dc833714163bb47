package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/dsp"
	"repro/internal/serve"
	"repro/internal/speechcmd"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// serveSpec is one open-loop serving workload: always-on sessions, each
// sending one chunk per chunk period, with start phases spread evenly over
// one hop period.
type serveSpec struct {
	sessions    int
	incremental bool    // Config.Incremental: the hop-cache pipeline
	lossyFrac   float64 // share of sessions on a lossy link
	dropP       float64 // per-chunk drop probability on a lossy link
}

// Both serving workloads offer about 40% of one core on a 2-vCPU host. At
// the ~60% of 60 full-window or 160 hop-cache sessions, queueing amplified
// a shared host's drift into a 13-35% run-to-run spread of latency_p50_ms.
var serveSpecs = map[string]serveSpec{
	"serve-lanes":    {sessions: 40},
	"serve-hopcache": {sessions: 100, incremental: true, lossyFrac: 0.25, dropP: 0.05},
}

const (
	sampleRate = 4000
	chunkLen   = sampleRate * 40 / 1000 // one 40 ms chunk
	period     = 40 * time.Millisecond  // one chunk per session per period
	warmup     = 2 * time.Second        // stream time before the timed window: fills the 1 s window and the caches
	numTracks  = 16                     // distinct seeded speech tracks; session i streams track i%numTracks
	trackSec   = 4                      // utterances per track (one second each), looped
	density    = 0.35                   // synthetic engine ternary density
	// engineSeed fixes the engine's weights (kws-serve's default -seed), so
	// the workload seed varies the traffic and never the model: engines of
	// seeds 1-8 differ by up to 8% in InferInt cost.
	engineSeed = 9
	lateMs     = 100 // serve.late_frac threshold
	setupReps  = 101 // set-ups per untimed run; setup_s is their median
	// The detector's own share of a hop's stream.push time, what dsp.featurize
	// and stream.classify leave, must lie in [serveSelfMin, serveSelfMax].
	// Below it the layer figures claim more time than the hop took; above
	// it they miss a stage.
	serveSelfMin = -0.08
	serveSelfMax = 0.25
)

// serveInputs is everything the seed decides for one serving run.
type serveInputs struct {
	spec     serveSpec
	engBytes []byte
	tracks   [][]float64
	lost     [][]bool // per session, per chunk: dropped by the session's link
	det      stream.Config
	hop      time.Duration // the detector's effective hop period
	hopLen   int           // the same in samples
	end      time.Duration // schedule end: warmup + timed window
	sched    []sendItem
}

// hookConfig makes every accepted hop deliver exactly one event, so the
// callback observes every hop: random weights would otherwise never fire.
func hookConfig(incremental bool) stream.Config {
	return stream.Config{
		SampleRate:   sampleRate,
		HopMs:        250,
		SmoothWin:    1,
		Threshold:    1e-6,
		RefractoryMs: 1,
		IgnoreClass:  -1,
		IgnoreClass2: -1,
		Incremental:  incremental,
	}
}

// engineBytes serialises the synthetic engine (default mixed policy) to the
// .thnt format the daemon loads.
func engineBytes() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := deploy.SyntheticEngine(engineSeed, density).WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("serialising engine: %w", err)
	}
	return buf.Bytes(), nil
}

// speechTrack renders n seeded one-second utterances (words, unknown words
// and silence) at rate, clipped to [-1, 1] so the detector's input scrubbing
// is the identity.
func speechTrack(rng *rand.Rand, n, rate int) []float64 {
	words := append(append([]string{""}, speechcmd.TargetWords...), speechcmd.UnknownWords...)
	cfg := speechcmd.DefaultConfig()
	cfg.SampleRate = rate
	var out []float64
	for u := 0; u < n; u++ {
		out = append(out, speechcmd.SynthesizeUtterance(words[rng.Intn(len(words))], cfg, rng)...)
	}
	for i, v := range out {
		out[i] = math.Max(-1, math.Min(1, v))
	}
	return out
}

func newServeInputs(spec serveSpec, seed int64, seconds int) (*serveInputs, error) {
	eb, err := engineBytes()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{spec: spec, engBytes: eb, det: hookConfig(spec.incremental)}
	for t := 0; t < numTracks; t++ {
		in.tracks = append(in.tracks, speechTrack(rng, trackSec, sampleRate))
	}
	probe := stream.NewDetector(in.det, stream.NewEngineClassifier(deploy.SyntheticEngine(engineSeed, density)), 0, 1)
	in.hopLen = probe.EffectiveHop()
	in.hop = time.Duration(in.hopLen) * time.Second / sampleRate
	in.end = warmup + time.Duration(seconds)*time.Second
	in.sched = buildSchedule(spec.sessions, in.hop, period, in.end)

	chunks := make([]int, spec.sessions)
	for _, it := range in.sched {
		chunks[it.sess] = int(it.k) + 1
	}
	in.lost = make([][]bool, spec.sessions)
	nLossy := int(math.Round(spec.lossyFrac * float64(spec.sessions)))
	for j, i := range rng.Perm(spec.sessions) {
		in.lost[i] = make([]bool, chunks[i])
		if j >= nLossy {
			continue
		}
		for k := range in.lost[i] {
			in.lost[i][k] = rng.Float64() < spec.dropP
		}
	}
	return in, nil
}

// fill copies chunk k of the given track into dst (len chunkLen).
func (in *serveInputs) fill(dst []float64, track int, k int32) {
	tr := in.tracks[track]
	off := int(k) * chunkLen % len(tr)
	n := copy(dst, tr[off:])
	copy(dst[n:], tr)
}

func (in *serveInputs) due(start time.Time, sess, k int) time.Time {
	return start.Add(phase(sess, in.spec.sessions, in.hop) + time.Duration(k)*period)
}

func (in *serveInputs) inWindow(sess, k int) bool {
	d := phase(sess, in.spec.sessions, in.hop) + time.Duration(k)*period
	return d >= warmup && d < in.end
}

// sink collects one session's events; only that session's pump goroutine
// appends, and the run reads it after the session's Done closes.
type sink struct{ got []delivery }

// serveRig is one set-up server with its open sessions.
type serveRig struct {
	eng   *deploy.Engine
	srv   *serve.Server
	reg   *telemetry.Registry
	sess  []*serve.Session
	sinks []*sink
}

// setupOnce is one set-up: read the engine, run its first inference, start
// the server with kws-serve's observability and open every session.
func (in *serveInputs) setupOnce(tr *tracer) (*serveRig, error) {
	eng, err := deploy.ReadEngine(bytes.NewReader(in.engBytes))
	if err != nil {
		return nil, fmt.Errorf("reading engine: %w", err)
	}
	eng.InferInt(make([]float32, int(eng.Frames*eng.Coeffs)))
	r := &serveRig{eng: eng, reg: telemetry.NewRegistry()}
	r.srv, err = serve.New(serve.Config{
		Engine:      eng,
		Detector:    in.det,
		SampleRate:  sampleRate,
		Incremental: in.spec.incremental,
		Registry:    r.reg,
		Flight:      telemetry.NewFlightRecorder(4096),
		Traces:      telemetry.NewTraceStore(4096),
		Logger:      telemetry.NewLogger(os.Stderr, telemetry.LevelInfo, "perfbench"),
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < in.spec.sessions; i++ {
		sk := &sink{}
		h := tr.begin("serve.open", -1, int64(i))
		s, err := r.srv.Open(serve.OpenOptions{
			ID: fmt.Sprintf("s%d", i),
			OnEvent: func(e stream.Event) {
				sk.got = append(sk.got, delivery{ev: event{e.Sample, e.Class, e.Score}, at: time.Now()})
			},
		})
		tr.end(h)
		if err != nil {
			r.teardown()
			return nil, fmt.Errorf("opening session %d: %w", i, err)
		}
		r.sess = append(r.sess, s)
		r.sinks = append(r.sinks, sk)
	}
	return r, nil
}

// setup runs the set-up reps times, tearing each rig down before the next
// (untimed), and keeps the last rig; the last rep is traced.
func (in *serveInputs) setup(reps int, tr *tracer) (*serveRig, setupTimes, error) {
	var st setupTimes
	var rig *serveRig
	for i := 0; i < reps; i++ {
		if rig != nil {
			rig.teardown()
		}
		var t *tracer
		if i == reps-1 {
			t = tr
		}
		err := st.measure(func() (err error) {
			rig, err = in.setupOnce(t)
			return err
		})
		if err != nil {
			return nil, st, err
		}
	}
	return rig, st, nil
}

// teardown closes every session and drains the server; it returns the
// number of sessions that had not stopped in time.
func (r *serveRig) teardown() int {
	for _, s := range r.sess {
		s.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	undone := 0
	for _, s := range r.sess {
		select {
		case <-s.Done():
		case <-ctx.Done():
			undone++
		}
	}
	r.srv.Drain(ctx)
	return undone
}

// tracedPusher records a serve.push span around each call into a session.
type tracedPusher struct {
	s  *serve.Session
	tr *tracer
	op int64
}

func (p tracedPusher) Push(x []float64) error {
	h := p.tr.begin("serve.push", -1, p.op)
	err := p.s.Push(x)
	p.tr.end(h)
	return err
}

func (p tracedPusher) PushGap(n int) error {
	h := p.tr.begin("serve.push", -1, p.op)
	err := p.s.PushGap(n)
	p.tr.end(h)
	return err
}

// live is what one open-loop pass observed.
type live struct {
	start          time.Time   // schedule origin
	clock          secondClock // process CPU over the timed window, per second
	heapBytes      uint64      // live heap after a GC at the window's end
	lagMs          []float64   // generator lateness per chunk
	timer          string      // how the generator waited
	feeds          []*feed
	sinks          []*sink
	stats          []serve.SessionStats
	laneBatchSum   int64
	laneBatchCount int64
	undone         int
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setupTimes holds the CPU and wall seconds of each timed set-up.
type setupTimes struct{ cpu, wall []float64 }

// measure times one set-up from a collected heap, so every rep starts from
// the same heap state.
func (st *setupTimes) measure(setup func() error) error {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	if err := setup(); err != nil {
		return err
	}
	st.wall = append(st.wall, time.Since(t0).Seconds())
	st.cpu = append(st.cpu, cpuSeconds()-c0)
	return nil
}

// setupS is the setup_s metric: the median process CPU time (user+sys,
// every thread, GC included) of one set-up. Wall time is reported beside it
// but not gated: on a busy shared 2-vCPU host the median wall time of the
// same set-up moved 27-33% between runs (quartile spread over median), with
// the scheduling of the pump goroutines and the collector, while its CPU
// time moved 7%; on a quiet host the two moved alike.
func (st setupTimes) setupS() float64 { return median(st.cpu) }

// detail is the set-up figures for the run's detail line.
func (st setupTimes) detail() map[string]any {
	return map[string]any{"reps": len(st.cpu), "cpu_s": safe(median(st.cpu)), "wall_s": safe(median(st.wall))}
}

// drive runs the schedule against the rig from one goroutine. Each chunk is
// sent when due whether or not the server keeps up, as a fresh slice (Push
// takes ownership); lateness is recorded, never compensated. It ends with
// every session closed and the server drained.
func (in *serveInputs) drive(rig *serveRig, tr *tracer) *live {
	n := in.spec.sessions
	lv := &live{feeds: make([]*feed, n), sinks: rig.sinks, lagMs: make([]float64, 0, len(in.sched))}
	for i := range lv.feeds {
		lv.feeds[i] = &feed{}
	}
	w := newWaiter()
	defer w.close()
	lv.timer = w.kind()
	lv.start = time.Now().Add(20 * time.Millisecond)
	winStart := lv.start.Add(warmup)
	for _, it := range in.sched {
		due := lv.start.Add(it.due)
		w.until(due)
		now := time.Now()
		if !now.Before(winStart) {
			lv.clock.tick(now, cpuSeconds)
		}
		lv.lagMs = append(lv.lagMs, float64(now.Sub(due))/1e6)
		i := int(it.sess)
		var p pusher = rig.sess[i]
		if tr != nil {
			p = tracedPusher{s: rig.sess[i], tr: tr, op: int64(i)}
		}
		lv.feeds[i].send(p, it.k, in.lost[i][it.k], chunkLen, func(k int32) []float64 {
			buf := make([]float64, chunkLen)
			in.fill(buf, i%numTracks, k)
			return buf
		})
	}
	w.until(lv.start.Add(in.end))
	lv.clock.close(time.Now(), cpuSeconds)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lv.heapBytes = ms.HeapAlloc

	lv.undone = rig.teardown()
	for _, s := range rig.sess {
		lv.stats = append(lv.stats, s.Stats())
	}
	h := rig.reg.Histogram("serve.lane.batch_frames", nil)
	lv.laneBatchSum, lv.laneBatchCount = h.Sum(), h.Count()
	return lv
}

// group is a set of sessions whose reference is one replay: sessions on the
// same track whose logs hold no gap share the longest such log (a shorter
// clean log is its prefix); a session with any gap is its own group.
type group struct {
	track   int
	log     []logOp
	members []int
	events  []event
}

func groupSessions(feeds []*feed) (groups []*group, of []int) {
	of = make([]int, len(feeds))
	clean := map[int]int{}
	for i, f := range feeds {
		track := i % numTracks
		if hasGap(f.log) {
			of[i] = len(groups)
			groups = append(groups, &group{track: track, log: f.log, members: []int{i}})
			continue
		}
		gi, ok := clean[track]
		if !ok {
			gi = len(groups)
			clean[track] = gi
			groups = append(groups, &group{track: track})
		}
		g := groups[gi]
		if len(f.log) > len(g.log) {
			g.log = f.log
		}
		g.members = append(g.members, i)
		of[i] = gi
	}
	return groups, of
}

// streamOf reconstructs the stream a log delivers: audio chunks from the
// track, zeros for gaps.
func (in *serveInputs) streamOf(track int, log []logOp) []float64 {
	out := make([]float64, samplesIn(log, chunkLen))
	pos := 0
	for _, op := range log {
		if op.Gap > 0 {
			pos += int(op.Gap)
			continue
		}
		in.fill(out[pos:pos+chunkLen], track, op.K)
		pos += chunkLen
	}
	return out
}

// replay runs one log through a fresh stream.Detector over eng on the
// calling goroutine, exactly as the server's session received it; its
// events are the correctness reference.
func (in *serveInputs) replay(eng *deploy.Engine, track int, log []logOp) []event {
	cls := stream.NewEngineClassifier(eng)
	defer cls.Close()
	det := stream.NewDetector(in.det, cls, 0, 1)
	buf := make([]float64, chunkLen)
	var out []event
	for _, op := range log {
		var evs []stream.Event
		if op.Gap > 0 {
			evs = det.ConcealGap(int(op.Gap))
		} else {
			in.fill(buf, track, op.K)
			evs = det.Push(buf)
		}
		for _, e := range evs {
			out = append(out, event{e.Sample, e.Class, e.Score})
		}
	}
	return out
}

// outcome is the end-to-end accounting of one live pass.
type outcome struct {
	latMs      []float64 // one per expected op, +Inf when failed
	attempted  int
	failed     int
	mismatches int
	done       []time.Time // when each delivered op arrived
}

func (in *serveInputs) account(lv *live, groups []*group, of []int) outcome {
	var oc outcome
	for i, sk := range lv.sinks {
		g := groups[of[i]]
		limit := samplesIn(lv.feeds[i].log, chunkLen)
		var ref []event
		for _, e := range g.events {
			if e.Sample <= limit {
				ref = append(ref, e)
			}
		}
		ops, mm := sessionAccount(ref, sk.got,
			func(k int) bool { return in.inWindow(i, k) },
			func(k int) time.Time { return in.due(lv.start, i, k) },
			lv.feeds[i].refused, chunkLen)
		oc.mismatches += mm
		for _, o := range ops {
			oc.attempted++
			if o.failed {
				oc.failed++
			}
			oc.latMs = append(oc.latMs, o.latMs)
		}
		for _, d := range sk.got {
			oc.done = append(oc.done, d.at)
		}
	}
	return oc
}

// endToEnd turns one pass into the end-to-end metrics.
func (in *serveInputs) endToEnd(lv *live, oc outcome, setupS float64) map[string]float64 {
	cpuPerOp, opsPerS := lv.clock.rates(oc.done)
	return map[string]float64{
		"latency_p50_ms": percentile(append([]float64(nil), oc.latMs...), 0.5),
		"cpu_ms_per_op":  cpuPerOp,
		"hops_per_s":     opsPerS,
		"heap_mb":        float64(lv.heapBytes) / 1e6,
		"delivered_frac": 1 - float64(oc.failed)/float64(max(oc.attempted, 1)),
		"failed_frac":    float64(oc.failed) / float64(max(oc.attempted, 1)),
		"setup_s":        setupS,
	}
}

// runServe runs one serving workload. Untraced, it measures the end-to-end
// metrics; traced, it runs an untraced and a traced pass (their difference
// is the tracing overhead) and a traced single-goroutine replay that yields
// the per-layer ledger.
func runServe(spec serveSpec, seed int64, seconds int, traced bool) (*result, error) {
	in, err := newServeInputs(spec, seed, seconds)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	reps := setupReps
	if traced {
		reps = 1
	}
	rig, st, err := in.setup(reps, nil)
	if err != nil {
		return nil, err
	}
	lv := in.drive(rig, nil)
	groups, of := groupSessions(lv.feeds)
	for _, g := range groups {
		g.events = in.replay(rig.eng, g.track, g.log)
	}
	oc := in.account(lv, groups, of)
	res.check(oc, lv)
	e2e := in.endToEnd(lv, oc, st.setupS())
	res.Attempted, res.Failed = oc.attempted, oc.failed
	res.Detail = map[string]any{
		"sessions": spec.sessions, "hop_ms": in.hop.Seconds() * 1000, "chunk_ms": 40,
		"expected_ops": oc.attempted, "reference_replays": len(groups),
		"latency_samples": len(oc.latMs), "latency_p99_ms": safe(percentile(oc.latMs, 0.99)),
		"gen_timer":      lv.timer,
		"gen_lag_p50_ms": safe(percentile(append([]float64(nil), lv.lagMs...), 0.5)),
		"gen_lag_p99_ms": safe(percentile(append([]float64(nil), lv.lagMs...), 0.99)),
		"setup":          st.detail(),
	}
	if !traced {
		res.Metrics = e2e
		return res, nil
	}

	tr := newTracer()
	trig, _, err := in.setup(1, tr)
	if err != nil {
		return nil, err
	}
	tlv := in.drive(trig, tr)
	tgroups, tof := groupSessions(tlv.feeds)
	led := newLedger()
	for gi, g := range tgroups {
		g.events = in.replayTraced(trig.eng, g, gi, tr, led)
	}
	toc := in.account(tlv, tgroups, tof)
	res.check(toc, tlv)
	te2e := in.endToEnd(tlv, toc, 0)
	res.Correct = res.Correct && led.mismatches == 0
	res.Spans = tr.spans
	var c closure
	res.Metrics, c = in.perLayer(trig.eng, tr, tlv, toc, led, e2e, te2e)
	res.Closure = &c
	res.Correct = res.Correct && res.Closure.Pass
	res.Detail["ledger_mismatches"] = led.mismatches
	return res, nil
}

// check folds one pass's correctness into the result.
func (r *result) check(oc outcome, lv *live) {
	if oc.mismatches > 0 || lv.undone > 0 {
		r.Correct = false
	}
	r.Mismatches += oc.mismatches
}

// ledger accumulates per-op counts from the traced replay, weighted by how
// many sessions each replay stands for.
type ledger struct {
	ops        float64 // weighted in-window hops
	hopPushNs  float64 // Detector call of the hop-carrying chunk, ns (weighted sum)
	frames     float64 // MFCC frames computed per hop (weighted sum)
	hopFull    float64 // side hop-state full recomputes (weighted)
	hopCols    float64 // side hop-state columns computed (weighted)
	weight     map[int64]float64
	feats      [][]float32 // in-window hop features, for the batch pass
	probs      [][]float32 // and the posteriors the detector saw for them
	mismatches int         // side-call outputs that differ from the detector's
}

func newLedger() *ledger { return &ledger{weight: map[int64]float64{}} }

func opID(g, hop int) int64 { return int64(g)<<32 | int64(hop) }

// probe is a timing wrapper over stream.EngineClassifier: it records the
// stream.classify span and keeps what the detector handed the engine.
type probe struct {
	inner  *stream.EngineClassifier
	tr     *tracer
	parent int32
	op     int64

	hopped      bool
	invalidated bool
	nNew        int
	feat        []float32
	probs       []float32
}

func (p *probe) NumClasses() int { return p.inner.NumClasses() }

func (p *probe) Classify(f []float32) []float32 {
	h := p.tr.begin("stream.classify", p.parent, p.op)
	out := p.inner.Classify(f)
	p.tr.end(h)
	p.keep(f, len(f), out)
	return out
}

func (p *probe) ClassifyHop(f []float32, nNew int) ([]float32, bool) {
	h := p.tr.begin("stream.classify", p.parent, p.op)
	out, inc := p.inner.ClassifyHop(f, nNew)
	p.tr.end(h)
	p.keep(f, nNew, out)
	return out, inc
}

func (p *probe) InvalidateHop() {
	p.inner.InvalidateHop()
	p.invalidated = true
}

func (p *probe) keep(f []float32, nNew int, out []float32) {
	p.hopped = true
	p.nNew = nNew
	p.feat = append(p.feat[:0], f...)
	p.probs = append(p.probs[:0], out...)
}

// replayTraced is replay with the per-layer spans of every hop. Each op (one
// hop) is a root span "op" holding a stream.push span per Detector call
// since the previous hop; the hop-carrying call holds stream.classify. A
// second root "check" of the same op then repeats, from this file and on the
// same input, the featurisation the detector did inside those calls:
// dsp.featurize (MFCC.Compute on the hop's window, or Frontend.Push+Window
// over the samples since the previous hop). On the hop-cache path it also
// repeats InferHopInt on a mirrored HopState, untimed, for the hop
// statistics. Each repeated call's output must equal what the detector used.
func (in *serveInputs) replayTraced(eng *deploy.Engine, g *group, gi int, tr *tracer, led *ledger) []event {
	cls := stream.NewEngineClassifier(eng)
	defer cls.Close()
	p := &probe{inner: cls, tr: tr}
	det := stream.NewDetector(in.det, p, 0, 1)
	wave := in.streamOf(g.track, g.log)
	mcfg := dsp.DefaultMFCCConfig(sampleRate)
	mfcc := dsp.NewMFCC(mcfg)
	frames := mcfg.NumFrames(sampleRate)
	fe := dsp.NewFrontend(mcfg, frames)
	win := make([]float32, frames*mcfg.NumCoeffs)
	hs := eng.NewHopState()
	defer hs.Release()
	var sideProbs []float32
	rep := g.members[0]

	var out []event
	buf := make([]float64, chunkLen)
	hop, fed := 0, 0
	root := tr.begin("op", -1, opID(gi, hop))
	for _, op := range g.log {
		id := opID(gi, hop)
		p.parent, p.op = tr.begin("stream.push", root, id), id
		var evs []stream.Event
		if op.Gap > 0 {
			evs = det.ConcealGap(int(op.Gap))
		} else {
			in.fill(buf, g.track, op.K)
			evs = det.Push(buf)
		}
		tr.end(p.parent)
		hopPush := tr.spans[p.parent].dur()
		for _, e := range evs {
			out = append(out, event{e.Sample, e.Class, e.Score})
		}
		if !p.hopped {
			continue
		}
		tr.end(root)
		p.hopped = false
		pos := sampleRate + hop*in.hopLen
		if len(evs) == 1 && evs[0].Sample != pos {
			led.mismatches++ // the hop grid this ledger assumes is wrong
		}

		check := tr.begin("check", -1, id)
		h := tr.begin("dsp.featurize", check, id)
		var feat []float32
		var nFrames int64
		if in.spec.incremental {
			before := fe.TotalFrames()
			fe.Push(wave[fed:pos])
			fe.Window(win)
			nFrames, feat = fe.TotalFrames()-before, win
			fed = pos
		} else {
			feat, nFrames = mfcc.Compute(wave[pos-sampleRate:pos]).Data, int64(frames)
		}
		tr.end(h)
		if !slices.Equal(feat, p.feat) {
			led.mismatches++
		}

		var full bool
		var cols int64
		if in.spec.incremental {
			if p.invalidated {
				hs.Invalidate()
				p.invalidated = false
			}
			c0 := hs.Stats().ColumnsComputed
			sc, _ := eng.InferHopInt(hs, p.feat, p.nNew)
			full, cols = hs.LastFull(), hs.Stats().ColumnsComputed-c0
			sideProbs = stream.ScoresToProbs(sc, float64(eng.Tree.WScale), sideProbs)
			if !slices.Equal(sideProbs, p.probs) {
				led.mismatches++
			}
		}
		tr.end(check)

		carrier := chunkOf(pos, chunkLen)
		if in.inWindow(rep, carrier) {
			w := float64(len(g.members))
			led.weight[id] = w
			led.ops += w
			led.frames += w * float64(nFrames)
			led.hopCols += w * float64(cols)
			led.hopPushNs += w * float64(hopPush)
			if full {
				led.hopFull += w
			}
			if !in.spec.incremental && len(led.feats) < 512 {
				led.feats = append(led.feats, append([]float32(nil), p.feat...))
				led.probs = append(led.probs, append([]float32(nil), p.probs...))
			}
		}
		hop++
		root = tr.begin("op", -1, opID(gi, hop))
	}
	tr.end(root) // samples after the last hop: an op with no hop, weight 0
	return out
}

// perLayer assembles the per-layer metrics of a traced serving run.
func (in *serveInputs) perLayer(eng *deploy.Engine, tr *tracer, lv *live, oc outcome,
	led *ledger, untraced, traced map[string]float64) (map[string]float64, closure) {
	m := map[string]float64{}
	weight := func(op int64) float64 { return led.weight[op] }
	ls := layerStats(tr.spans, weight)
	perOp := func(name string) float64 {
		st := ls[name]
		if st == nil || led.ops == 0 {
			return 0
		}
		return st.TotalS / led.ops * 1e6
	}
	m["dsp.featurize_us"] = perOp("dsp.featurize")
	m["dsp.frames_per_op"] = led.frames / math.Max(led.ops, 1)
	m["stream.push_us_per_hop"] = perOp("stream.push")
	m["stream.classify_us_per_hop"] = perOp("stream.classify")

	mcfg := dsp.DefaultMFCCConfig(sampleRate)
	frames := mcfg.NumFrames(sampleRate)
	wave := in.tracks[0] // trackSec seconds: room for the window plus a dozen hops
	if in.spec.incremental {
		fe := dsp.NewFrontend(mcfg, frames)
		win := make([]float32, frames*mcfg.NumCoeffs)
		fe.Push(wave[:sampleRate])
		next := sampleRate
		m["dsp.allocs_per_op"] = testing.AllocsPerRun(10, func() {
			fe.Push(wave[next : next+in.hopLen])
			fe.Window(win)
			next += in.hopLen
		})
		hs := eng.NewHopState()
		fe.Window(win)
		eng.InferHopInt(hs, win, frames)
		m["deploy.allocs_per_op"] = testing.AllocsPerRun(20, func() { eng.InferHopInt(hs, win, in.hopLen/mcfg.Stride()) })
		hs.Release()
		m["deploy.hop_us"] = perOp("stream.classify") // ClassifyHop: InferHopInt and ScoresToProbs
		m["deploy.hop_full_frac"] = led.hopFull / math.Max(led.ops, 1)
		m["deploy.hop_columns_per_op"] = led.hopCols / math.Max(led.ops, 1)
	} else {
		mfcc := dsp.NewMFCC(mcfg)
		m["dsp.allocs_per_op"] = testing.AllocsPerRun(20, func() { mfcc.Compute(wave[:sampleRate]) })
		mean := 1.0
		if lv.laneBatchCount > 0 {
			mean = float64(lv.laneBatchSum) / float64(lv.laneBatchCount)
		}
		m["serve.lane_batch_frames"] = mean
		b := max(int(math.Round(mean)), 1)
		perFrame, allocs, bad := batchPass(eng, led.feats, led.probs, b, tr)
		m["deploy.batch_us_per_frame"] = perFrame
		m["deploy.allocs_per_op"] = allocs
		led.mismatches += bad
	}
	m["deploy.scratch_bytes"] = float64(eng.ScratchBytes())
	m["deploy.model_bytes"] = float64(eng.Size())

	var hits, misses, bad int64
	for _, st := range lv.stats {
		hits += st.HopCache.Hits
		misses += st.HopCache.Misses
		bad += st.Detector.BadPosteriors
	}
	if hits+misses > 0 {
		m["stream.hop_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["stream.bad_posteriors"] = float64(bad)

	all := layerStats(tr.spans, func(int64) float64 { return 1 })
	if st := all["serve.open"]; st != nil {
		m["serve.open_ms"] = st.TotalS / st.Calls * 1e3
	}
	if st := all["serve.push"]; st != nil {
		m["serve.push_us"] = st.TotalS / st.Calls * 1e6
	}
	var rejected int
	for _, f := range lv.feeds {
		for _, c := range f.refused {
			rejected += c
		}
	}
	m["serve.push_rejected"] = float64(rejected)
	m["serve.queue_wait_ms"] = traced["latency_p50_ms"] - led.hopPushNs/math.Max(led.ops, 1)/1e6
	m["serve.latency_p99_ms"] = percentile(append([]float64(nil), oc.latMs...), 0.99)
	m["serve.late_frac"] = fracAbove(oc.latMs, lateMs)
	m["serve.gen_lag_p99_ms"] = percentile(append([]float64(nil), lv.lagMs...), 0.99)
	m["bench.trace_overhead_latency"] = traced["latency_p50_ms"]/untraced["latency_p50_ms"] - 1
	m["bench.trace_overhead_cpu"] = traced["cpu_ms_per_op"]/untraced["cpu_ms_per_op"] - 1

	c := checkClosure(tr.spans, "stream.push", []string{"dsp.featurize", "stream.classify"},
		serveSelfMin, serveSelfMax, func(op int64) bool { return led.weight[op] > 0 })
	m["bench.closure_gap_frac"] = c.Gap
	return m, c
}

// batchPass times InferBatchCappedInto over the captured hop features in
// batches of b frames with one worker per call, as a serving lane runs
// them. It returns microseconds per frame, allocations per frame, and how
// many frames' posteriors differ from what the detector saw.
func batchPass(eng *deploy.Engine, feats, probs [][]float32, b int, tr *tracer) (usPerFrame, allocs float64, bad int) {
	if len(feats) == 0 {
		return 0, 0, 0
	}
	var dst []deploy.BatchResult
	var pr []float32
	var tot int64
	frames := 0
	for lo := 0; lo < len(feats); lo += b {
		hi := min(lo+b, len(feats))
		h := tr.begin("deploy.batch", -1, -1)
		dst = eng.InferBatchCappedInto(dst, feats[lo:hi], 1)
		tr.end(h)
		tot += tr.spans[h].dur()
		frames += hi - lo
		for j, r := range dst {
			pr = stream.ScoresToProbs(r.Scores, float64(eng.Tree.WScale), pr)
			if r.Err != nil || !slices.Equal(pr, probs[lo+j]) {
				bad++
			}
		}
	}
	xs := feats[:min(b, len(feats))]
	allocs = testing.AllocsPerRun(20, func() { dst = eng.InferBatchCappedInto(dst, xs, 1) }) / float64(len(xs))
	return float64(tot) / float64(frames) / 1e3, allocs, bad
}

package main

import (
	"math"
	"sort"
	"time"
)

// sendItem is one chunk of one session's stream, due at an offset from the
// run's start.
type sendItem struct {
	due  time.Duration
	sess int32
	k    int32 // chunk index within the session's stream
}

// phase is session i's start offset: n sessions spread evenly over one hop
// period, so their hops (not just their chunks) are spread in time.
func phase(i, n int, hop time.Duration) time.Duration {
	return hop * time.Duration(i) / time.Duration(n)
}

// buildSchedule lists every chunk of n always-on sessions in due-time order.
// Session i sends chunk k at phase(i)+k·every, for every due time before
// end. Ties keep session order.
func buildSchedule(n int, hop, every, end time.Duration) []sendItem {
	var items []sendItem
	for i := 0; i < n; i++ {
		for k, due := 0, phase(i, n, hop); due < end; k, due = k+1, due+every {
			items = append(items, sendItem{due: due, sess: int32(i), k: int32(k)})
		}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].due < items[b].due })
	return items
}

// chunkOf maps an event's stream position to the chunk that carried it.
// Event.Sample is the count of samples consumed when the hop fired, so the
// triggering sample is Sample-1.
func chunkOf(sample, chunkLen int) int { return (sample - 1) / chunkLen }

// logOp is one operation the server accepted for a session: audio chunk K,
// or (Gap > 0) Gap samples of dropped audio.
type logOp struct {
	K   int32
	Gap int32
}

// pusher is the part of serve.Session the generator drives.
type pusher interface {
	Push(samples []float64) error
	PushGap(n int) error
}

// feed keeps one session's accepted-op log in step with what the server
// accepted. A refused push becomes a pending gap, sent (and logged) before
// the session's next chunk, so the server's stream and the reference replay
// of the log never diverge in position.
type feed struct {
	log     []logOp
	pending int           // refused samples not yet reported as a gap
	refused map[int32]int // refused chunk indices
}

// send delivers chunk k: audio from samples(k) or, when lost is set (the
// session's link dropped it), a gap of chunkLen samples.
func (f *feed) send(p pusher, k int32, lost bool, chunkLen int, samples func(k int32) []float64) {
	if f.pending > 0 {
		if err := p.PushGap(f.pending); err != nil {
			f.refuse(k, chunkLen)
			return
		}
		f.log = append(f.log, logOp{K: -1, Gap: int32(f.pending)})
		f.pending = 0
	}
	var err error
	if lost {
		err = p.PushGap(chunkLen)
	} else {
		err = p.Push(samples(k))
	}
	if err != nil {
		f.refuse(k, chunkLen)
		return
	}
	op := logOp{K: k}
	if lost {
		op.Gap = int32(chunkLen)
	}
	f.log = append(f.log, op)
}

func (f *feed) refuse(k int32, chunkLen int) {
	if f.refused == nil {
		f.refused = map[int32]int{}
	}
	f.refused[k]++
	f.pending += chunkLen
}

// samplesIn is the stream length the log covers.
func samplesIn(log []logOp, chunkLen int) int {
	n := 0
	for _, op := range log {
		if op.Gap > 0 {
			n += int(op.Gap)
		} else {
			n += chunkLen
		}
	}
	return n
}

// hasGap reports whether any accepted op is a gap.
func hasGap(log []logOp) bool {
	for _, op := range log {
		if op.Gap > 0 {
			return true
		}
	}
	return false
}

// opOutcome is one expected op of the timed window: its latency in
// milliseconds, +Inf when it failed.
type opOutcome struct {
	latMs  float64
	failed bool
}

// event is the comparable part of a stream.Event.
type event struct {
	Sample int
	Class  int
	Score  float32
}

// delivery is an event as the session's callback received it.
type delivery struct {
	ev event
	at time.Time
}

// sessionAccount compares one session's delivered events with its reference
// events. Every delivered event must equal the reference event at the same
// Sample (a mismatch fails the run); a reference event in the window counts
// as an attempted op, failed when it never arrived or when the chunk that
// carries it was refused. due gives the scheduled send time of a chunk.
func sessionAccount(ref []event, got []delivery, inWindow func(k int) bool, due func(k int) time.Time,
	refused map[int32]int, chunkLen int) (ops []opOutcome, mismatches int) {
	byPos := make(map[int]event, len(ref))
	for _, e := range ref {
		byPos[e.Sample] = e
	}
	arrived := make(map[int]time.Time, len(got))
	for _, d := range got {
		want, ok := byPos[d.ev.Sample]
		if !ok || want != d.ev {
			mismatches++
			continue
		}
		arrived[d.ev.Sample] = d.at
	}
	for _, e := range ref {
		k := chunkOf(e.Sample, chunkLen)
		if !inWindow(k) {
			continue
		}
		at, ok := arrived[e.Sample]
		if !ok || refused[int32(k)] > 0 {
			ops = append(ops, opOutcome{latMs: inf, failed: true})
			continue
		}
		ops = append(ops, opOutcome{latMs: float64(at.Sub(due(k))) / 1e6})
	}
	return ops, mismatches
}

// percentile is the q-quantile (0..1) of xs by linear interpolation between
// order statistics; +Inf entries (failed ops) sort last and propagate. xs is
// sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	frac := pos - float64(lo)
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

// fracAbove is the share of xs strictly greater than limit.
func fracAbove(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// median of a few values (copied, so the caller's order survives).
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

var inf = math.Inf(1)

// safe makes a value JSON-encodable: +Inf (failed ops at that rank) becomes
// the largest float64, and NaN (no samples) becomes -1.
func safe(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return -1
	}
	return v
}

// secondClock samples process CPU at one-second boundaries of the timed
// window. Per-op CPU and throughput are medians over those seconds, so a
// burst from a neighbour on a shared host moves one second's figure, not
// the run's.
type secondClock struct {
	wall []time.Time
	cpu  []float64
}

// tick takes a sample at the window's start and whenever now has crossed
// the next one-second boundary.
func (c *secondClock) tick(now time.Time, cpu func() float64) {
	if len(c.wall) == 0 || now.Sub(c.wall[0]) >= time.Duration(len(c.wall))*time.Second {
		c.wall = append(c.wall, now)
		c.cpu = append(c.cpu, cpu())
	}
}

// close takes the window's final sample.
func (c *secondClock) close(now time.Time, cpu func() float64) {
	c.wall = append(c.wall, now)
	c.cpu = append(c.cpu, cpu())
}

// rates returns, over the seconds of the window, the median CPU
// milliseconds per op completed in that second and the median ops per
// second, from the ops' completion times. A final second shorter than half
// a second is left out.
func (c *secondClock) rates(done []time.Time) (cpuMsPerOp, opsPerS float64) {
	var cpu, ops []float64
	for j := 0; j+1 < len(c.wall); j++ {
		lo, hi := c.wall[j], c.wall[j+1]
		wall := hi.Sub(lo).Seconds()
		if wall < 0.5 {
			continue
		}
		n := 0
		for _, t := range done {
			if !t.Before(lo) && t.Before(hi) {
				n++
			}
		}
		ops = append(ops, float64(n)/wall)
		cpu = append(cpu, 1000*(c.cpu[j+1]-c.cpu[j])/float64(max(n, 1)))
	}
	return median(cpu), median(ops)
}

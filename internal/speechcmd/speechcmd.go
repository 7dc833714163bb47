// Package speechcmd synthesises a deterministic stand-in for the Google
// Speech Commands corpus used by the paper.
//
// The real corpus (65K one-second clips of 30 spoken words) is not available
// offline, so each vocabulary word is given a reproducible acoustic
// signature: a small set of formant-like frequency chirps with harmonics,
// rendered into a one-second waveform at a configurable sample rate. Samples
// are augmented exactly as the paper describes — background noise and random
// timing jitter — which is what makes the task hard for models without
// translation-tolerant feature extractors (the property the paper's
// comparison between convolutional models and Bonsai trees rests on).
//
// The classification task mirrors the paper: 10 target keywords plus
// "silence" and "unknown" (the remaining 20 vocabulary words), an 80/10/10
// train/validation/test split, and 49×10 MFCC input features.
package speechcmd

import (
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TargetWords are the ten keywords the paper's models classify, in the
// paper's order.
var TargetWords = []string{"yes", "no", "up", "down", "left", "right", "on", "off", "stop", "go"}

// UnknownWords are the remaining twenty vocabulary words, pooled into the
// "unknown" class.
var UnknownWords = []string{
	"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
	"bed", "bird", "cat", "dog", "happy", "house", "marvin", "sheila", "tree", "wow",
}

// Class labels: indices 0..9 are the target words, then silence, then unknown.
const (
	SilenceClass = 10
	UnknownClass = 11
	NumClasses   = 12
)

// ClassNames returns the 12 class names in label order.
func ClassNames() []string {
	names := append([]string(nil), TargetWords...)
	return append(names, "silence", "unknown")
}

// Config controls corpus synthesis.
type Config struct {
	SampleRate    int     // waveform sample rate (Hz); 4000 is plenty for the synthetic signatures
	Seed          int64   // master seed; the corpus is a pure function of (Config)
	SamplesPerCls int     // generated samples per class before splitting
	NoiseStd      float64 // background noise standard deviation
	JitterMs      int     // max absolute onset jitter in milliseconds
	SpeakerVarPct float64 // per-sample frequency perturbation (e.g. 0.06 = ±6%)
}

// DefaultConfig returns a corpus configuration sized for laptop-scale
// training sweeps.
func DefaultConfig() Config {
	return Config{
		SampleRate:    4000,
		Seed:          1,
		SamplesPerCls: 120,
		NoiseStd:      0.06,
		JitterMs:      100,
		SpeakerVarPct: 0.06,
	}
}

// signature is the deterministic acoustic identity of a word: an ordered
// sequence of three formant-like chirp segments. Segments draw their base
// frequencies from a small shared pool and differ mainly in glide direction
// and ordering, so the *time-averaged* spectra of different words are highly
// confusable while local temporal patterns (a rising vs falling glide, the
// order of segments) identify the word. This is what makes the task easy
// for convolutional feature extractors but hard for a single global linear
// projection — the property the paper's Bonsai-vs-CNN comparison rests on.
type signature struct {
	baseHz [3]float64 // segment centre frequency, from the shared pool
	dir    [3]float64 // glide direction and extent, ±
	amp    [3]float64
	harm   [3]int // number of harmonics per segment
}

// basePool is the shared set of centre frequencies (Hz). With only four
// entries and three segments per word, many words share the exact same
// frequency set and differ only in segment order and glide direction —
// properties invisible to time-averaged spectra.
var basePool = [4]float64{280, 520, 900, 1400}

// signatureFor derives a word's signature from an FNV hash of its spelling,
// so the corpus is stable across runs and machines.
func signatureFor(word string) signature {
	h := fnv.New64a()
	h.Write([]byte(word))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	var s signature
	perm := rng.Perm(len(basePool))
	for f := 0; f < 3; f++ {
		base := basePool[perm[f]]
		dir := 0.4 * base // glide extent: ±40% of the centre frequency
		if rng.Intn(2) == 0 {
			dir = -dir
		}
		s.baseHz[f] = base
		s.dir[f] = dir
		// Amplitude and harmonic count are identical across words so the
		// aggregate spectral mass carries as little identity as possible.
		s.amp[f] = 0.6
		s.harm[f] = 1
	}
	return s
}

// Sample is one labelled utterance with its MFCC features.
type Sample struct {
	Features *tensor.Tensor // [49, 10] MFCC image
	Label    int            // class index in [0, NumClasses)
	Word     string         // source vocabulary word ("" for silence)
}

// Dataset is a fully materialised synthetic corpus with the paper's
// 80/10/10 split.
type Dataset struct {
	Train, Val, Test []Sample
	Config           Config
	InputFrames      int // 49
	InputCoeffs      int // 10

	// FeatMean and FeatStd are the train-split normalisation statistics
	// applied to every sample; streaming inference must standardise raw
	// features with the same constants.
	FeatMean, FeatStd float32
}

// synthWord renders one augmented utterance of the word into a 1 s waveform.
func synthWord(sig signature, cfg Config, rng *rand.Rand) []float64 {
	n := cfg.SampleRate
	wave := make([]float64, n)
	// Word occupies ~600 ms; onset jitter simulates alignment error.
	durSamp := n * 6 / 10
	maxJit := cfg.SampleRate * cfg.JitterMs / 1000
	onset := n/5 + rng.Intn(2*maxJit+1) - maxJit
	if onset < 0 {
		onset = 0
	}
	if onset+durSamp > n {
		onset = n - durSamp
	}
	speaker := 1 + (rng.Float64()*2-1)*cfg.SpeakerVarPct
	loud := 0.7 + rng.Float64()*0.6
	for f := 0; f < 3; f++ {
		f0 := (sig.baseHz[f] - sig.dir[f]/2) * speaker
		f1 := (sig.baseHz[f] + sig.dir[f]/2) * speaker
		// Segments play mostly sequentially, so their order (part of the
		// word's identity) is a temporal pattern, not a spectral one.
		segStart := onset + f*durSamp*3/10
		segLen := durSamp * 4 / 10
		if segStart+segLen > n {
			segLen = n - segStart
		}
		phase := rng.Float64() * 2 * math.Pi
		for h := 1; h <= sig.harm[f]; h++ {
			amp := sig.amp[f] * loud / float64(h*h)
			ph := phase
			for i := 0; i < segLen; i++ {
				tfrac := float64(i) / float64(segLen)
				freq := (f0 + (f1-f0)*tfrac) * float64(h)
				ph += 2 * math.Pi * freq / float64(cfg.SampleRate)
				// Hann envelope keeps onsets/offsets smooth.
				env := 0.5 - 0.5*math.Cos(2*math.Pi*tfrac)
				wave[segStart+i] += amp * env * math.Sin(ph)
			}
		}
	}
	addNoise(wave, cfg.NoiseStd, rng)
	return wave
}

// synthSilence renders a background-noise-only clip.
func synthSilence(cfg Config, rng *rand.Rand) []float64 {
	wave := make([]float64, cfg.SampleRate)
	// Silence clips range from near-digital-silence to plain background noise.
	level := cfg.NoiseStd * (0.2 + rng.Float64()*1.3)
	addNoise(wave, level, rng)
	return wave
}

func addNoise(wave []float64, std float64, rng *rand.Rand) {
	for i := range wave {
		wave[i] += rng.NormFloat64() * std
	}
}

// featurizeBlockSize bounds how many raw waveforms Generate holds in memory
// at once while featurising them in parallel.
const featurizeBlockSize = 128

// Generate materialises the corpus: SamplesPerCls utterances for each of the
// 12 classes, featurised to MFCC and split 80/10/10.
//
// Waveform synthesis consumes the single master rng strictly sequentially,
// so for a given Config the corpus does not depend on how many cores
// featurise it. Only the MFCC featurisation — a pure per-waveform function
// that never touches the rng — fans out across cores, block by block,
// through one shared (concurrency-safe) MFCC extractor.
func Generate(cfg Config) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sigs := make(map[string]signature, len(TargetWords)+len(UnknownWords))
	for _, w := range append(append([]string(nil), TargetWords...), UnknownWords...) {
		sigs[w] = signatureFor(w)
	}

	var all []Sample
	var waves [][]float64
	mfcc := dsp.NewMFCC(dsp.DefaultMFCCConfig(cfg.SampleRate))
	flush := func() {
		if len(waves) == 0 {
			return
		}
		base := len(all) - len(waves)
		nn.ParallelFor(len(waves), func(i int) {
			all[base+i].Features = mfcc.Compute(waves[i])
		})
		waves = waves[:0]
	}
	emit := func(word string, label int) {
		var wave []float64
		if label == SilenceClass {
			wave = synthSilence(cfg, rng)
		} else {
			wave = synthWord(sigs[word], cfg, rng)
		}
		all = append(all, Sample{Label: label, Word: word})
		waves = append(waves, wave)
		if len(waves) >= featurizeBlockSize {
			flush()
		}
	}
	for i, w := range TargetWords {
		for s := 0; s < cfg.SamplesPerCls; s++ {
			emit(w, i)
		}
	}
	for s := 0; s < cfg.SamplesPerCls; s++ {
		emit("", SilenceClass)
	}
	for s := 0; s < cfg.SamplesPerCls; s++ {
		emit(UnknownWords[s%len(UnknownWords)], UnknownClass)
	}
	flush()

	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	nTrain := len(all) * 8 / 10
	nVal := len(all) / 10
	ds := &Dataset{
		Train:       all[:nTrain],
		Val:         all[nTrain : nTrain+nVal],
		Test:        all[nTrain+nVal:],
		Config:      cfg,
		InputFrames: 49,
		InputCoeffs: 10,
	}
	ds.normalise()
	return ds
}

// normalise standardises features to zero mean / unit variance using
// statistics from the training split only.
func (d *Dataset) normalise() {
	var sum, sumSq float64
	var n int
	for _, s := range d.Train {
		for _, v := range s.Features.Data {
			sum += float64(v)
			sumSq += float64(v) * float64(v)
			n++
		}
	}
	if n == 0 {
		return
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if std < 1e-6 {
		std = 1
	}
	d.FeatMean, d.FeatStd = float32(mean), float32(std)
	apply := func(ss []Sample) {
		for _, s := range ss {
			for i, v := range s.Features.Data {
				s.Features.Data[i] = float32((float64(v) - mean) / std)
			}
		}
	}
	apply(d.Train)
	apply(d.Val)
	apply(d.Test)
}

// Batch collects features and labels for samples[lo:hi] into a
// [n, frames*coeffs] matrix and a label slice, ready for training.
func Batch(samples []Sample, lo, hi int) (*tensor.Tensor, []int) {
	if hi > len(samples) {
		hi = len(samples)
	}
	n := hi - lo
	if n <= 0 {
		return tensor.New(0, 0), nil
	}
	dim := samples[lo].Features.Size()
	x := tensor.New(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		copy(x.Data[i*dim:(i+1)*dim], samples[lo+i].Features.Data)
		y[i] = samples[lo+i].Label
	}
	return x, y
}

// Shuffle permutes samples in place using rng.
func Shuffle(samples []Sample, rng *rand.Rand) {
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
}

// SynthesizeUtterance renders a single utterance waveform for the given
// word (or silence when word == ""), for use by inference demos.
func SynthesizeUtterance(word string, cfg Config, rng *rand.Rand) []float64 {
	if word == "" {
		return synthSilence(cfg, rng)
	}
	return synthWord(signatureFor(word), cfg, rng)
}

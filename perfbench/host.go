package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// provenance records what ran and where, so results from different hosts
// or commits are never compared unknowingly.
type provenance struct {
	Commit       string  `json:"git_commit"`
	SourceDigest string  `json:"source_sha256"`
	CPUModel     string  `json:"cpu_model"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	EffParallel  float64 `json:"effective_parallelism"`
	SpinNs       float64 `json:"spin_ns_per_iter"` // one goroutine's probe speed: host drift shows here
}

// hostProvenance gathers provenance for the module rooted at root. The
// parallelism probe spins for roughly 2·probe of wall time.
func hostProvenance(root string, probe time.Duration) provenance {
	eff, spinNs := effectiveParallelism(probe)
	return provenance{
		Commit:       gitCommit(root),
		SourceDigest: sourceDigest(root),
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		EffParallel:  eff,
		SpinNs:       spinNs,
	}
}

// gitCommit is HEAD of the repository rooted at root, or "none" when root
// is not a repository's top level (the benchmark may run from an exported
// tree).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	abs, aerr := filepath.Abs(root)
	lines := strings.Fields(string(out))
	if err != nil || aerr != nil || len(lines) != 2 || lines[0] != abs {
		return "none"
	}
	return lines[1]
}

// sourceDigest hashes every Go source and go.mod under root, in path order,
// which identifies the code under test even where there is no git history.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spinSink keeps the probe's arithmetic observable.
var spinSink [2]uint64

// effectiveParallelism measures how many CPUs this process really gets: the
// time one goroutine takes for a fixed spin, against two goroutines doing
// that spin each at once. 2.0 means two idle cores; 1.0 means the two
// goroutines time-share one. It also returns the single goroutine's
// nanoseconds per spin iteration.
func effectiveParallelism(probe time.Duration) (float64, float64) {
	// Calibrate a spin that takes about probe on one goroutine.
	n := uint64(1 << 20)
	for {
		t0 := time.Now()
		spinSink[0] += spin(n)
		if time.Since(t0) >= probe/4 {
			break
		}
		n *= 2
	}
	n *= 4
	t0 := time.Now()
	spinSink[0] += spin(n)
	one := time.Since(t0)

	var wg sync.WaitGroup
	t0 = time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			spinSink[g] += spin(n)
		}(g)
	}
	wg.Wait()
	two := time.Since(t0)
	return 2 * one.Seconds() / two.Seconds(), float64(one.Nanoseconds()) / float64(n)
}

func spin(n uint64) uint64 {
	x := uint64(88172645463325252)
	for i := uint64(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// Package audio reads and writes mono 16-bit PCM WAV files using only the
// standard library, so the inference and streaming tools can consume real
// recordings and the synthetic corpus can be exported for listening.
package audio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// WAV container constants (RIFF/WAVE, PCM).
const (
	pcmFormat     = 1
	bitsPerSample = 16
)

// WriteWAV writes samples in [-1, 1] as a mono 16-bit PCM WAV file.
func WriteWAV(w io.Writer, samples []float64, sampleRate int) error {
	if sampleRate <= 0 {
		return errors.New("audio: sample rate must be positive")
	}
	dataLen := len(samples) * 2
	var hdr [44]byte
	copy(hdr[0:4], "RIFF")
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(36+dataLen))
	copy(hdr[8:12], "WAVE")
	copy(hdr[12:16], "fmt ")
	binary.LittleEndian.PutUint32(hdr[16:20], 16) // fmt chunk size
	binary.LittleEndian.PutUint16(hdr[20:22], pcmFormat)
	binary.LittleEndian.PutUint16(hdr[22:24], 1) // mono
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(sampleRate))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(sampleRate*2)) // byte rate
	binary.LittleEndian.PutUint16(hdr[32:34], 2)                    // block align
	binary.LittleEndian.PutUint16(hdr[34:36], bitsPerSample)
	copy(hdr[36:40], "data")
	binary.LittleEndian.PutUint32(hdr[40:44], uint32(dataLen))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 2*len(samples))
	for i, s := range samples {
		v := int16(math.Round(clamp(s, -1, 1) * 32767))
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(v))
	}
	_, err := w.Write(buf)
	return err
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Per-chunk allocation bounds: a hostile header may claim any 32-bit size,
// so chunk bodies are read incrementally (allocation tracks bytes actually
// present, not the claimed size) and capped — 64 MiB of data is over half an
// hour of 16-bit mono at 16 kHz, far beyond any keyword-spotting input.
const (
	maxDataChunkBytes = 64 << 20
	maxFmtChunkBytes  = 4 << 10

	// preallocChunkBytes caps how much of a claimed chunk size is allocated
	// before the bytes arrive: a one-second 16 kHz clip's 32,000-byte data
	// chunk fits in one allocation, while a hostile claim costs at most this
	// much up front.
	preallocChunkBytes = 64 << 10
)

// readChunkBody reads exactly size bytes, allocating at most
// preallocChunkBytes before the bytes arrive. A body within that bound is
// read straight into one exact-size slice; a larger claim grows a
// bytes.Buffer from the bound as bytes actually arrive, so a header claiming
// more than the stream holds fails after the real bytes, not after a
// size-sized up-front allocation.
func readChunkBody(r io.Reader, id string, size uint32) ([]byte, error) {
	if size <= preallocChunkBytes {
		body := make([]byte, size)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, fmt.Errorf("audio: reading chunk %q: %w", id, err)
		}
		return body, nil
	}
	buf := bytes.NewBuffer(make([]byte, 0, preallocChunkBytes))
	if _, err := io.CopyN(buf, r, int64(size)); err != nil {
		return nil, fmt.Errorf("audio: reading chunk %q: %w", id, err)
	}
	return buf.Bytes(), nil
}

// ReadWAV reads a mono (or first-channel of a multi-channel) 16-bit PCM WAV
// file, returning samples in [-1, 1] and the sample rate. Unknown chunks are
// skipped without allocation (honouring RIFF word alignment: odd-sized
// chunks carry a pad byte), and fmt/data chunk allocations are bounded so a
// hostile header cannot OOM the process.
func ReadWAV(r io.Reader) (samples []float64, sampleRate int, err error) {
	// One header buffer serves the RIFF header and then every chunk header
	// (its first 8 bytes): it escapes through the io.Reader, so sharing it
	// costs one allocation instead of one per header.
	var hdr [12]byte
	riff := hdr[:]
	if _, err := io.ReadFull(r, riff); err != nil {
		return nil, 0, fmt.Errorf("audio: reading RIFF header: %w", err)
	}
	if string(riff[0:4]) != "RIFF" || string(riff[8:12]) != "WAVE" {
		return nil, 0, errors.New("audio: not a RIFF/WAVE file")
	}
	var channels, bits int
	var rate int
	var data []byte
	haveData := false
	for {
		chunk := hdr[:8]
		if _, err := io.ReadFull(r, chunk); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			return nil, 0, err
		}
		id := string(chunk[0:4])
		size := binary.LittleEndian.Uint32(chunk[4:8])
		switch id {
		case "fmt ":
			if size > maxFmtChunkBytes {
				return nil, 0, fmt.Errorf("audio: fmt chunk too large (%d bytes)", size)
			}
			body, err := readChunkBody(r, id, size)
			if err != nil {
				return nil, 0, err
			}
			if len(body) < 16 {
				return nil, 0, errors.New("audio: short fmt chunk")
			}
			format := int(binary.LittleEndian.Uint16(body[0:2]))
			if format != pcmFormat {
				return nil, 0, fmt.Errorf("audio: unsupported format %d (want PCM)", format)
			}
			channels = int(binary.LittleEndian.Uint16(body[2:4]))
			rate = int(binary.LittleEndian.Uint32(body[4:8]))
			bits = int(binary.LittleEndian.Uint16(body[14:16]))
		case "data":
			if size > maxDataChunkBytes {
				return nil, 0, fmt.Errorf("audio: data chunk too large (%d bytes, max %d)", size, maxDataChunkBytes)
			}
			body, err := readChunkBody(r, id, size)
			if err != nil {
				return nil, 0, err
			}
			data = body
			haveData = true
		default:
			// Skip unknown chunks without buffering them.
			if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
				return nil, 0, fmt.Errorf("audio: skipping chunk %q: %w", id, err)
			}
		}
		if size%2 == 1 { // RIFF chunks are word-aligned: skip the pad byte
			var pad [1]byte
			if _, err := io.ReadFull(r, pad[:]); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
				return nil, 0, err
			}
		}
		if haveData && rate != 0 {
			break
		}
	}
	if rate == 0 {
		return nil, 0, errors.New("audio: missing fmt chunk")
	}
	if !haveData {
		return nil, 0, errors.New("audio: missing data chunk")
	}
	if bits != bitsPerSample {
		return nil, 0, fmt.Errorf("audio: unsupported bit depth %d (want 16)", bits)
	}
	if channels < 1 {
		return nil, 0, errors.New("audio: no channels")
	}
	frame := 2 * channels
	n := len(data) / frame
	samples = make([]float64, n)
	for i := 0; i < n; i++ {
		v := int16(binary.LittleEndian.Uint16(data[i*frame:]))
		samples[i] = float64(v) / 32767
	}
	return samples, rate, nil
}

// Resample converts samples from one rate to another with linear
// interpolation — sufficient for moving recordings onto the corpus rate.
func Resample(samples []float64, fromRate, toRate int) []float64 {
	if fromRate == toRate || len(samples) == 0 {
		return samples
	}
	n := int(float64(len(samples)) * float64(toRate) / float64(fromRate))
	out := make([]float64, n)
	ratio := float64(fromRate) / float64(toRate)
	for i := range out {
		pos := float64(i) * ratio
		j := int(pos)
		frac := pos - float64(j)
		if j+1 < len(samples) {
			out[i] = samples[j]*(1-frac) + samples[j+1]*frac
		} else {
			out[i] = samples[len(samples)-1]
		}
	}
	return out
}

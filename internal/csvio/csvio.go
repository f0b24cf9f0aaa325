// Package csvio serializes acquisitions the way the MedSen prototype ships
// them to the cloud: CSV files of demodulated multi-carrier samples (§VII-B,
// "approximately 600MB of encrypted bio-sensor measurements, captured in csv
// files"), bundled into zip archives by the phone to save 4G transfer volume
// ("MedSen implements zip data compression on the smartphone. This reduced
// the sample size to 240MB").
//
// The zip member is written in chunks. The CSV rows are cut into chunks of
// about 128 KB (the row count per chunk depends on the carrier count only,
// so a capture encodes to the same bytes on any machine), and up to
// GOMAXPROCS workers format and deflate them at archive/zip's level 5. Each
// chunk is compressed by a fresh stream with no preset dictionary; every
// chunk but the last ends in a sync flush, which byte-aligns it, and the
// last one ends the stream. Appended in order, the chunks are one valid
// deflate stream, so any zip reader — and DecompressAcquisition, unchanged —
// inflates the member as usual. The member's CRC-32 is combined from the
// chunks' CRCs. Chunking costs little ratio on a 30 s, 8-carrier capture:
// 0.3686 of the CSV against 0.3677 for one stream. A 4 KB dictionary from
// the previous chunk's tail would win back only 0.0004 and tie every chunk
// to its predecessor's CSV; without one, the chunks are independent.
package csvio

import (
	"archive/zip"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

// MeasurementsFileName is the archive member holding the CSV payload.
const MeasurementsFileName = "measurements.csv"

// ErrBadCSV reports a malformed measurements file.
var ErrBadCSV = errors.New("csvio: malformed measurements CSV")

// DecodeBuffer holds reusable sample storage for DecodeAcquisitionBuffer
// and DecompressAcquisitionBuffer, so sustained decoding (one upload after
// another in the cloud service) stops paying append-growth garbage for every
// capture. The zero value is ready to use; a buffer must not be shared
// between concurrent decodes.
type DecodeBuffer struct {
	samples [][]float64
}

// DecodeAcquisition parses a CSV produced by EncodeAcquisition. The sampling
// rate is recovered from the time column.
func DecodeAcquisition(r io.Reader) (lockin.Acquisition, error) {
	return decodeAcquisition(r, nil)
}

// DecodeAcquisitionBuffer is DecodeAcquisition with sample storage drawn
// from buf. The returned acquisition's traces alias buf's backing arrays and
// are valid only until the buffer's next decode: callers that recycle the
// buffer (e.g. through a sync.Pool) must be done with the acquisition first.
func DecodeAcquisitionBuffer(r io.Reader, buf *DecodeBuffer) (lockin.Acquisition, error) {
	return decodeAcquisition(r, buf)
}

func decodeAcquisition(r io.Reader, buf *DecodeBuffer) (lockin.Acquisition, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return lockin.Acquisition{}, fmt.Errorf("%w: missing header: %v", ErrBadCSV, err)
	}
	if len(header) < 2 || header[0] != "time_s" {
		return lockin.Acquisition{}, fmt.Errorf("%w: bad header %q", ErrBadCSV, header)
	}
	carriers := make([]float64, 0, len(header)-1)
	for _, col := range header[1:] {
		var hz int64
		if _, err := fmt.Sscanf(col, "ch_%dHz", &hz); err != nil {
			return lockin.Acquisition{}, fmt.Errorf("%w: bad channel column %q", ErrBadCSV, col)
		}
		carriers = append(carriers, float64(hz))
	}

	var samples [][]float64
	if buf != nil {
		if cap(buf.samples) < len(carriers) {
			buf.samples = make([][]float64, len(carriers))
		}
		samples = buf.samples[:len(carriers)]
		for c := range samples {
			samples[c] = samples[c][:0]
		}
	} else {
		samples = make([][]float64, len(carriers))
	}
	defer func() {
		// Keep whatever the appends grew, even on a parse error.
		if buf != nil {
			buf.samples = samples
		}
	}()
	// The time column only sets the rate, (rows-1)/(t_last-t_0): every
	// value is parsed, but only the first and the last are kept.
	var rows int
	var tFirst, tLast float64
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return lockin.Acquisition{}, fmt.Errorf("%w: %v", ErrBadCSV, err)
		}
		if len(rec) != len(carriers)+1 {
			return lockin.Acquisition{}, fmt.Errorf("%w: row has %d fields, want %d",
				ErrBadCSV, len(rec), len(carriers)+1)
		}
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return lockin.Acquisition{}, fmt.Errorf("%w: bad time %q", ErrBadCSV, rec[0])
		}
		if rows == 0 {
			tFirst = t
		}
		tLast = t
		rows++
		for c := range carriers {
			v, err := strconv.ParseFloat(rec[c+1], 64)
			if err != nil {
				return lockin.Acquisition{}, fmt.Errorf("%w: bad value %q", ErrBadCSV, rec[c+1])
			}
			samples[c] = append(samples[c], v)
		}
	}
	if rows < 2 {
		return lockin.Acquisition{}, fmt.Errorf("%w: need at least 2 samples", ErrBadCSV)
	}
	rate := float64(rows-1) / (tLast - tFirst)

	acq := lockin.Acquisition{
		CarriersHz: carriers,
		Traces:     make([]sigproc.Trace, len(carriers)),
	}
	for c := range carriers {
		acq.Traces[c] = sigproc.Trace{Rate: rate, Samples: samples[c]}
	}
	return acq, nil
}

// DecompressAcquisition reverses CompressAcquisition.
func DecompressAcquisition(data []byte) (lockin.Acquisition, error) {
	return DecompressAcquisitionBuffer(data, nil)
}

// DecompressAcquisitionBuffer is DecompressAcquisition with sample storage
// drawn from buf (which may be nil); see DecodeAcquisitionBuffer for the
// aliasing contract.
func DecompressAcquisitionBuffer(data []byte, buf *DecodeBuffer) (lockin.Acquisition, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return lockin.Acquisition{}, fmt.Errorf("csvio: opening archive: %w", err)
	}
	for _, f := range zr.File {
		if f.Name != MeasurementsFileName {
			continue
		}
		rc, err := f.Open()
		if err != nil {
			return lockin.Acquisition{}, fmt.Errorf("csvio: opening member: %w", err)
		}
		defer rc.Close()
		return decodeAcquisition(rc, buf)
	}
	return lockin.Acquisition{}, fmt.Errorf("csvio: archive lacks %s", MeasurementsFileName)
}

// CSVSize returns the exact size in bytes of the CSV encoding without
// retaining it (used by the §VII-B data-volume experiment).
func CSVSize(acq lockin.Acquisition) (int64, error) {
	var counter countingWriter
	if err := EncodeAcquisition(&counter, acq); err != nil {
		return 0, err
	}
	return counter.n, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

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
// deflate stream, so any zip reader, DecompressAcquisition's included,
// inflates the member as usual. The member's CRC-32 is combined from the
// chunks' CRCs. Chunking costs little ratio on a 30 s, 8-carrier capture:
// 0.3686 of the CSV against 0.3677 for one stream. A 4 KB dictionary from
// the previous chunk's tail would win back only 0.0004 and tie every chunk
// to its predecessor's CSV; without one, the chunks are independent.
//
// Decoding runs in two stages. A goroutine reads the source — the zip
// member's reader, which inflates and checks the CRC-32 at its end, or the
// caller's io.Reader — into 64 KB blocks, a few of them allocated per call
// and cycled between the stages. The caller's goroutine cuts the blocks into
// lines, carrying a line that straddles two blocks, and parses each field
// with strconv.ParseFloat straight into the sample storage, with no
// allocation per row or field. Inflate and parse overlap on two cores; at
// GOMAXPROCS 1 the same two goroutines take turns. An acquisition is
// returned only after the source has ended cleanly, so a damaged member
// still fails. A panic in the source becomes the decode's error, and the
// reading goroutine has returned before the decode does, on success and on
// every error.
//
// The decoder accepts what the encoding/csv decoder it replaced accepted,
// apart from the rate rule below. The header record is parsed by
// encoding/csv itself: its first column is "time_s" and each other one
// starts "ch_<freq>Hz". Each later line is one row with one float field per
// column; lines end in "\n" or "\r\n", empty lines are skipped, the last
// line may lack its line end, and a field may sit in one pair of double
// quotes. The sample rate is (rows-1)/(t_last-t_first) from the time
// column, and a capture whose rate is not finite and positive (a NaN or
// infinite end time, equal end times or decreasing ones) is rejected with
// ErrBadCSV.
package csvio

import (
	"archive/zip"
	"bytes"
	"errors"
	"fmt"
	"io"

	"medsen/internal/lockin"
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
// rate is recovered from the time column. r is read on a goroutine of the
// decode's own, which may read ahead of the parse by a few blocks; when a
// parse error stops the decode, it returns once that goroutine's read in
// progress does.
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

package csvio

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"medsen/internal/lockin"
)

const (
	// chunkCSVBytes is the CSV size one chunk is cut for.
	chunkCSVBytes = 128 << 10
	// fieldBytes is the width of one full-precision 'g' float and its
	// separator, the unit chunks are cut in.
	fieldBytes = 19
	// flateLevel is archive/zip's own Deflate level.
	flateLevel = 5
	// zipDataDescriptor is the general-purpose flag that moves a member's
	// CRC-32 and sizes to a descriptor after its data, as archive/zip
	// does for every streamed member.
	zipDataDescriptor = 0x8
	// zipVersion20 is the "version made by / needed to extract" that
	// archive/zip records for a Deflate member.
	zipVersion20 = 20
)

// encoder cuts one validated acquisition into CSV chunks.
type encoder struct {
	acq       lockin.Acquisition
	rate      float64
	rows      int
	chunkRows int
	chunks    int
}

func newEncoder(acq lockin.Acquisition) (*encoder, error) {
	if len(acq.Traces) == 0 {
		return nil, errors.New("csvio: empty acquisition")
	}
	if len(acq.CarriersHz) != len(acq.Traces) {
		return nil, fmt.Errorf("csvio: %d carriers for %d traces", len(acq.CarriersHz), len(acq.Traces))
	}
	n := len(acq.Traces[0].Samples)
	rate := acq.Traces[0].Rate
	for i, tr := range acq.Traces {
		if len(tr.Samples) != n {
			return nil, fmt.Errorf("csvio: trace %d has %d samples, want %d", i, len(tr.Samples), n)
		}
		if tr.Rate != rate {
			return nil, fmt.Errorf("csvio: trace %d rate %v differs from %v", i, tr.Rate, rate)
		}
	}
	// The cut depends on the carrier count alone, so the payload is the
	// same bytes on every machine.
	chunkRows := max(1, chunkCSVBytes/(fieldBytes*(len(acq.Traces)+1)))
	return &encoder{
		acq:       acq,
		rate:      rate,
		rows:      n,
		chunkRows: chunkRows,
		chunks:    max(1, (n+chunkRows-1)/chunkRows),
	}, nil
}

// appendChunk appends chunk k's rows to dst; chunk 0 starts with the header
// row "time_s,ch_<freq>Hz,...".
func (e *encoder) appendChunk(dst []byte, k int) []byte {
	if k == 0 {
		dst = append(dst, "time_s"...)
		for _, f := range e.acq.CarriersHz {
			dst = append(dst, ",ch_"...)
			dst = strconv.AppendInt(dst, int64(f), 10)
			dst = append(dst, "Hz"...)
		}
		dst = append(dst, '\n')
	}
	for i := k * e.chunkRows; i < min((k+1)*e.chunkRows, e.rows); i++ {
		dst = strconv.AppendFloat(dst, float64(i)/e.rate, 'g', -1, 64)
		for _, tr := range e.acq.Traces {
			dst = append(dst, ',')
			dst = strconv.AppendFloat(dst, tr.Samples[i], 'g', -1, 64)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// chunkBuffer returns scratch sized for one chunk's CSV.
func chunkBuffer() []byte { return make([]byte, 0, chunkCSVBytes+chunkCSVBytes/4) }

// EncodeAcquisition writes the acquisition as CSV: a header row of
// "time_s,ch_<freq>Hz,..." followed by one row per sample instant.
func EncodeAcquisition(w io.Writer, acq lockin.Acquisition) error {
	e, err := newEncoder(acq)
	if err != nil {
		return err
	}
	buf := chunkBuffer()
	for k := 0; k < e.chunks; k++ {
		buf = e.appendChunk(buf[:0], k)
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("csvio: writing chunk %d: %w", k, err)
		}
	}
	return nil
}

// CompressAcquisition encodes the acquisition as CSV inside a zip archive —
// the exact payload the phone uploads.
func CompressAcquisition(acq lockin.Acquisition) ([]byte, error) {
	e, err := newEncoder(acq)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	// Room for the member at a 0.4 compression ratio, the upper end of
	// real captures, plus the zip headers.
	buf.Grow(e.rows*(len(acq.Traces)+1)*fieldBytes*2/5 + 256)
	zw := zip.NewWriter(&buf)
	// CreateRaw keeps fh and writes the data descriptor and the central
	// directory from it at Close, so the checksum and sizes are filled in
	// once the chunks are written.
	fh := &zip.FileHeader{
		Name:           MeasurementsFileName,
		Method:         zip.Deflate,
		Flags:          zipDataDescriptor,
		CreatorVersion: zipVersion20,
		ReaderVersion:  zipVersion20,
	}
	member, err := zw.CreateRaw(fh)
	if err != nil {
		return nil, fmt.Errorf("csvio: creating archive member: %w", err)
	}
	sum, err := e.deflate(member)
	if err != nil {
		return nil, fmt.Errorf("csvio: compressing: %w", err)
	}
	fh.CRC32 = sum.crc
	fh.UncompressedSize64 = sum.raw
	fh.CompressedSize64 = sum.compressed
	fh.UncompressedSize = uint32(min(sum.raw, math.MaxUint32))
	fh.CompressedSize = uint32(min(sum.compressed, math.MaxUint32))
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("csvio: closing archive: %w", err)
	}
	return buf.Bytes(), nil
}

// memberSum is the zip member's CRC-32 and sizes.
type memberSum struct {
	crc             uint32
	raw, compressed uint64
}

// deflate formats and compresses the chunks on up to GOMAXPROCS workers and
// writes them to w in chunk order, as one deflate stream: every chunk but
// the last ends in a sync flush, the last one closes the stream. Workers
// take chunks in index order and wait their turn to write, so each holds at
// most one compressed chunk.
func (e *encoder) deflate(w io.Writer) (memberSum, error) {
	q := &chunkQueue{e: e, w: w}
	q.turn.L = &q.mu
	var wg sync.WaitGroup
	for i := 1; i < min(runtime.GOMAXPROCS(0), e.chunks); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.work()
		}()
	}
	q.work()
	wg.Wait()
	return q.sum, q.err
}

// chunkQueue hands chunks to deflate's workers and orders their output.
type chunkQueue struct {
	e    *encoder
	w    io.Writer
	next atomic.Int64 // next chunk to take

	mu      sync.Mutex
	turn    sync.Cond // signalled when written advances
	written int       // chunks written to w
	sum     memberSum
	err     error
}

func (q *chunkQueue) work() {
	// Scratch is allocated per call: pooled, the 800 KB compressor stays
	// live between captures (see DESIGN.md §10).
	zw, _ := flate.NewWriter(nil, flateLevel) // errors only for a bad level
	csv := chunkBuffer()
	var comp bytes.Buffer
	comp.Grow(chunkCSVBytes / 2)
	for {
		k := int(q.next.Add(1)) - 1
		if k >= q.e.chunks {
			return
		}
		csv = q.e.appendChunk(csv[:0], k)
		crc := crc32.ChecksumIEEE(csv)
		comp.Reset()
		zw.Reset(&comp)
		_, err := zw.Write(csv)
		if err == nil && k < q.e.chunks-1 {
			err = zw.Flush()
		} else if err == nil {
			err = zw.Close()
		}

		q.mu.Lock()
		for q.written != k {
			q.turn.Wait()
		}
		if err == nil && q.err == nil {
			_, err = q.w.Write(comp.Bytes())
		}
		if q.err == nil {
			q.err = err
		}
		q.sum.crc = crc32Combine(q.sum.crc, crc, len(csv))
		q.sum.raw += uint64(len(csv))
		q.sum.compressed += uint64(comp.Len())
		q.written++
		q.turn.Broadcast()
		q.mu.Unlock()
	}
}

// crc32Combine returns the IEEE CRC-32 of A‖B from crcA, crcB and len(B):
// crcA advanced over len(B) zero bytes (a multiplication by x^(8·len(B))
// modulo the polynomial), XORed with crcB.
func crc32Combine(crcA, crcB uint32, lenB int) uint32 {
	shift := uint32(1) << 31 // x^0, in the reflected bit order
	sq := uint32(1) << 23    // x^8
	for n := lenB; n > 0; n >>= 1 {
		if n&1 != 0 {
			shift = mulModP(shift, sq)
		}
		sq = mulModP(sq, sq)
	}
	return mulModP(shift, crcA) ^ crcB
}

// mulModP multiplies two reflected polynomials modulo the IEEE CRC-32
// polynomial. a must be non-zero.
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.IEEE
		} else {
			b >>= 1
		}
	}
}

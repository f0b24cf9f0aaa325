package csvio

import (
	"archive/zip"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

// referenceDecode is the encoding/csv decoder the two-stage one replaced,
// kept as the oracle of the differential tests. It accepts any time column.
func referenceDecode(r io.Reader) (lockin.Acquisition, error) {
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
	samples := make([][]float64, len(carriers))
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

// referenceDecompress is DecompressAcquisition over referenceDecode.
func referenceDecompress(data []byte) (lockin.Acquisition, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return lockin.Acquisition{}, err
	}
	for _, f := range zr.File {
		if f.Name != MeasurementsFileName {
			continue
		}
		rc, err := f.Open()
		if err != nil {
			return lockin.Acquisition{}, err
		}
		defer rc.Close()
		return referenceDecode(rc)
	}
	return lockin.Acquisition{}, errors.New("no member")
}

// validRate is the rate rule the two-stage decoder adds to the reference.
func validRate(rate float64) bool { return rate > 0 && !math.IsInf(rate, 1) }

// bitwiseEqual reports how two acquisitions differ, comparing float bits so
// that NaN samples count.
func bitwiseEqual(got, want lockin.Acquisition) error {
	if len(got.CarriersHz) != len(want.CarriersHz) || len(got.Traces) != len(want.Traces) {
		return fmt.Errorf("%d carriers and %d traces, want %d and %d",
			len(got.CarriersHz), len(got.Traces), len(want.CarriersHz), len(want.Traces))
	}
	for c := range want.CarriersHz {
		if math.Float64bits(got.CarriersHz[c]) != math.Float64bits(want.CarriersHz[c]) {
			return fmt.Errorf("carrier %d is %v, want %v", c, got.CarriersHz[c], want.CarriersHz[c])
		}
		g, w := got.Traces[c], want.Traces[c]
		if math.Float64bits(g.Rate) != math.Float64bits(w.Rate) {
			return fmt.Errorf("trace %d rate %v, want %v", c, g.Rate, w.Rate)
		}
		if len(g.Samples) != len(w.Samples) {
			return fmt.Errorf("trace %d has %d samples, want %d", c, len(g.Samples), len(w.Samples))
		}
		for i := range w.Samples {
			if math.Float64bits(g.Samples[i]) != math.Float64bits(w.Samples[i]) {
				return fmt.Errorf("trace %d sample %d is %v, want %v", c, i, g.Samples[i], w.Samples[i])
			}
		}
	}
	return nil
}

// checkDifferential holds the decoder to the reference on one input: what
// it accepts, the reference accepts bitwise-identically, and what the
// reference accepts, it rejects only for the rate rule.
func checkDifferential(t *testing.T, got lockin.Acquisition, err error, want lockin.Acquisition, refErr error) {
	t.Helper()
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("accepted an input the reference rejects: %v", refErr)
	case err == nil:
		if d := bitwiseEqual(got, want); d != nil {
			t.Fatalf("differs from the reference: %v", d)
		}
	case refErr == nil && validRate(want.Traces[0].Rate):
		t.Fatalf("rejected an input the reference accepts with rate %v: %v", want.Traces[0].Rate, err)
	}
}

// straddlingCSV is the CSV of a multi-block capture, shifted by leading
// empty lines (which the decoder skips) until a row straddles every block
// boundary.
func straddlingCSV(t testing.TB, carriers, rows int) []byte {
	t.Helper()
	var csv bytes.Buffer
	if err := EncodeAcquisition(&csv, shapedAcquisition(carriers, rows)); err != nil {
		t.Fatal(err)
	}
	if csv.Len() < 2*blockBytes {
		t.Fatalf("%d-byte CSV spans fewer than two blocks", csv.Len())
	}
	for shift := 0; ; shift++ {
		in := append(bytes.Repeat([]byte{'\n'}, shift), csv.Bytes()...)
		straddles := true
		for end := blockBytes; end < len(in); end += blockBytes {
			straddles = straddles && in[end-1] != '\n'
		}
		if straddles {
			return in
		}
	}
}

// Rows cut at every offset of a block boundary decode exactly as the
// reference does and reproduce the encoded samples, with "\n" and with
// "\r\n" line ends, and with a header that itself straddles a boundary.
func TestDecodeRowsStraddlingBlocks(t *testing.T) {
	for _, carriers := range []int{1, 8} {
		acq := shapedAcquisition(carriers, 7*blockBytes/(2*fieldBytes*(carriers+1)))
		var plain bytes.Buffer
		if err := EncodeAcquisition(&plain, acq); err != nil {
			t.Fatal(err)
		}
		crlf := bytes.ReplaceAll(plain.Bytes(), []byte("\n"), []byte("\r\n"))
		for name, text := range map[string][]byte{"LF": plain.Bytes(), "CRLF": crlf} {
			want, err := referenceDecode(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			for c := range acq.Traces {
				acq.Traces[c].Rate = want.Traces[0].Rate
			}
			if d := bitwiseEqual(want, acq); d != nil {
				t.Fatalf("reference round trip: %v", d)
			}
			rowBytes := bytes.IndexByte(text[bytes.IndexByte(text, '\n')+1:], '\n') + 1
			shifts := []int{blockBytes - 5, blockBytes, blockBytes + 3}
			for shift := 0; shift <= rowBytes+1; shift++ {
				shifts = append(shifts, shift)
			}
			var buf DecodeBuffer
			for _, shift := range shifts {
				in := append(bytes.Repeat([]byte{'\n'}, shift), text...)
				got, err := DecodeAcquisitionBuffer(bytes.NewReader(in), &buf)
				if err != nil {
					t.Fatalf("%d carriers, %s, shift %d: %v", carriers, name, shift, err)
				}
				if d := bitwiseEqual(got, want); d != nil {
					t.Fatalf("%d carriers, %s, shift %d: %v", carriers, name, shift, d)
				}
			}
		}
	}
}

// settleGoroutines waits briefly for the count to fall back to want: a
// joined goroutine can still be counted for a moment after it signals.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the decode, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// truncateMember rebuilds payload with the first half of its measurements
// member's deflate data, keeping the recorded CRC-32 and sizes.
func truncateMember(t *testing.T, payload []byte) []byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(payload), int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	f := zr.File[0]
	rc, err := f.OpenRaw()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	raw = raw[:len(raw)/2]
	var out bytes.Buffer
	zw := zip.NewWriter(&out)
	hdr := f.FileHeader
	hdr.CompressedSize64 = uint64(len(raw))
	w, err := zw.CreateRaw(&hdr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// A decode that fails leaves no reading goroutine behind, whether the
// scanner stops it early or the source fails at its end.
func TestDecodeFailureJoinsReader(t *testing.T) {
	// Six blocks: the reader fills every block in flight and waits for the
	// scanner to free one when the scanner fails.
	text := straddlingCSV(t, 8, 6*blockBytes/(fieldBytes*9))
	hdr := bytes.Index(text, []byte("time_s"))
	firstRow := hdr + bytes.IndexByte(text[hdr:], '\n') + 1
	badValue := bytes.Clone(text)
	badValue[firstRow+bytes.IndexByte(text[firstRow:], ',')+1] = 'x'
	ragged := bytes.Clone(text)
	ragged[firstRow+bytes.IndexByte(text[firstRow:], '\n')-1] = ','

	payload, err := CompressAcquisition(shapedAcquisition(8, 13500))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(payload), int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := zr.File[0].DataOffset()
	if err != nil {
		t.Fatal(err)
	}
	// The data descriptor follows the member's data: signature, then CRC-32.
	crcFlipped := bytes.Clone(payload)
	crcFlipped[data+int64(zr.File[0].CompressedSize64)+4] ^= 0x01
	truncated := truncateMember(t, payload)

	// A source's error is the decode's, even where the failed read cut a
	// row short.
	cases := []struct {
		name   string
		decode func() error
		want   error
	}{
		{"bad value in the first block", func() error {
			_, err := DecodeAcquisition(bytes.NewReader(badValue))
			return err
		}, ErrBadCSV},
		{"ragged row in the first block", func() error {
			_, err := DecodeAcquisition(bytes.NewReader(ragged))
			return err
		}, ErrBadCSV},
		{"CRC-flipped member", func() error {
			_, err := DecompressAcquisition(crcFlipped)
			return err
		}, zip.ErrChecksum},
		{"truncated member", func() error {
			_, err := DecompressAcquisition(truncated)
			return err
		}, io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			if err := tc.decode(); !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			settleGoroutines(t, before)
		})
	}
}

// panicReader yields its text and then panics, as a broken io.Reader might.
type panicReader struct{ r io.Reader }

func (p *panicReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	if err == io.EOF {
		panic("reader exploded")
	}
	return n, err
}

// A panic in the source happens on the reading goroutine, out of reach of
// any recover in the decode's caller: it must come back as an error.
func TestDecodeReaderPanicIsAnError(t *testing.T) {
	before := runtime.NumGoroutine()
	text := "time_s,ch_500000Hz\n0,1\n0.002,0.99\n"
	_, err := DecodeAcquisition(&panicReader{strings.NewReader(text)})
	if err == nil || !strings.Contains(err.Error(), "reader exploded") {
		t.Fatalf("error %v, want the reader's panic", err)
	}
	settleGoroutines(t, before)
}

// stalledReader never returns a byte or an error.
type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { return 0, nil }

// A source that stops making progress fails the decode, as it failed the
// bufio reader under encoding/csv, instead of spinning forever.
func TestDecodeStalledReaderFails(t *testing.T) {
	if _, err := DecodeAcquisition(stalledReader{}); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("error %v, want %v", err, io.ErrNoProgress)
	}
}

// The stages hand blocks over in order whatever the scheduling, so the
// decode is the same at any GOMAXPROCS.
func TestDecompressIdenticalAcrossGOMAXPROCS(t *testing.T) {
	acq := shapedAcquisition(8, 13500)
	payload, err := CompressAcquisition(acq)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var buf DecodeBuffer
		got, err := DecompressAcquisitionBuffer(payload, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for c := range acq.Traces {
			acq.Traces[c].Rate = got.Traces[0].Rate
		}
		if d := bitwiseEqual(got, acq); d != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, d)
		}
	}
}

// With a warm buffer the scan allocates nothing per row or field: what is
// left is the inflater's Huffman tables, the zip directory, the header and
// the per-call blocks.
func TestDecompressAllocs(t *testing.T) {
	payload, err := CompressAcquisition(shapedAcquisition(8, 13500))
	if err != nil {
		t.Fatal(err)
	}
	var buf DecodeBuffer
	if _, err := DecompressAcquisitionBuffer(payload, &buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DecompressAcquisitionBuffer(payload, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Fatalf("warm DecompressAcquisitionBuffer allocs/op = %.0f, want <= 500", allocs)
	}
}

package csvio

import (
	"archive/zip"
	"bytes"
	"encoding/csv"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"strconv"
	"testing"

	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

// shapedAcquisition builds a capture with the given carrier count and rows,
// with samples that exercise every 'g' spelling: negatives, exponents and
// the non-finite values.
func shapedAcquisition(carriers, rows int) lockin.Acquisition {
	rng := rand.New(rand.NewPCG(uint64(carriers), uint64(rows)))
	acq := lockin.Acquisition{
		CarriersHz: make([]float64, carriers),
		Traces:     make([]sigproc.Trace, carriers),
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1e-300, -2.5e21}
	for c := range acq.Traces {
		acq.CarriersHz[c] = float64(500e3 + 250e3*c)
		samples := make([]float64, rows)
		for i := range samples {
			samples[i] = 1 + 0.003*rng.NormFloat64()
			if rng.IntN(500) == 0 {
				samples[i] = special[rng.IntN(len(special))]
			}
		}
		acq.Traces[c] = sigproc.Trace{Rate: 450, Samples: samples}
	}
	return acq
}

// referenceCSV is the encoding/csv encoder the chunked one replaced.
func referenceCSV(t *testing.T, acq lockin.Acquisition) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	row := []string{"time_s"}
	for _, f := range acq.CarriersHz {
		row = append(row, fmt.Sprintf("ch_%dHz", int64(f)))
	}
	if err := cw.Write(row); err != nil {
		t.Fatal(err)
	}
	rate := acq.Traces[0].Rate
	for i := range acq.Traces[0].Samples {
		row[0] = strconv.FormatFloat(float64(i)/rate, 'g', -1, 64)
		for c, tr := range acq.Traces {
			row[c+1] = strconv.FormatFloat(tr.Samples[i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunkShapes lists the row counts at the chunk boundaries for a carrier
// count: fewer rows than one chunk, exactly k chunks, and k chunks + 1 row.
func chunkShapes(t *testing.T, carriers int) []int {
	t.Helper()
	e, err := newEncoder(shapedAcquisition(carriers, 1))
	if err != nil {
		t.Fatal(err)
	}
	return []int{2, e.chunkRows - 1, e.chunkRows, 3 * e.chunkRows, 3*e.chunkRows + 1}
}

func TestEncodeMatchesEncodingCSV(t *testing.T) {
	for _, carriers := range []int{1, 8} {
		for _, rows := range append(chunkShapes(t, carriers), 0) {
			acq := shapedAcquisition(carriers, rows)
			var got bytes.Buffer
			if err := EncodeAcquisition(&got, acq); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), referenceCSV(t, acq)) {
				t.Fatalf("%d carriers, %d rows: CSV differs from the encoding/csv reference", carriers, rows)
			}
		}
	}
}

func TestEncodeRejectsCarrierTraceMismatch(t *testing.T) {
	acq := shapedAcquisition(2, 10)
	acq.CarriersHz = acq.CarriersHz[:1]
	if _, err := CompressAcquisition(acq); err == nil {
		t.Fatal("expected an error for 1 carrier and 2 traces")
	}
}

// The chunk cut depends on the carrier count alone, so the payload — and
// the capture key the cloud dedups by — is the same on every machine.
func TestCompressIdenticalAcrossGOMAXPROCS(t *testing.T) {
	acq := shapedAcquisition(8, 13500) // a 30 s capture at 450 Hz
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := CompressAcquisition(acq)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS %d: payload differs from GOMAXPROCS 1", procs)
		}
	}
}

// The chunked member reads back through the standard library's zip reader
// with the exact CSV, the header sizes CSVSize reports, and bitwise-equal
// samples.
func TestCompressRoundTripChunkShapes(t *testing.T) {
	for _, carriers := range []int{1, 8} {
		for _, rows := range chunkShapes(t, carriers) {
			t.Run(fmt.Sprintf("carriers=%d/rows=%d", carriers, rows), func(t *testing.T) {
				acq := shapedAcquisition(carriers, rows)
				payload, err := CompressAcquisition(acq)
				if err != nil {
					t.Fatal(err)
				}
				zr, err := zip.NewReader(bytes.NewReader(payload), int64(len(payload)))
				if err != nil {
					t.Fatal(err)
				}
				if len(zr.File) != 1 || zr.File[0].Name != MeasurementsFileName {
					t.Fatalf("archive members %+v", zr.File)
				}
				size, err := CSVSize(acq)
				if err != nil {
					t.Fatal(err)
				}
				if got := zr.File[0].UncompressedSize64; got != uint64(size) {
					t.Fatalf("UncompressedSize64 %d, CSVSize %d", got, size)
				}
				rc, err := zr.File[0].Open()
				if err != nil {
					t.Fatal(err)
				}
				text, err := io.ReadAll(rc) // checks the CRC-32 at EOF
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(text, referenceCSV(t, acq)) {
					t.Fatal("unzipped CSV differs from the reference encoding")
				}
				got, err := DecompressAcquisition(payload)
				if err != nil {
					t.Fatal(err)
				}
				for c, tr := range acq.Traces {
					for i, v := range tr.Samples {
						if w := got.Traces[c].Samples[i]; math.Float64bits(w) != math.Float64bits(v) &&
							!(math.IsNaN(w) && math.IsNaN(v)) {
							t.Fatalf("carrier %d sample %d: %v, want %v", c, i, w, v)
						}
					}
				}
			})
		}
	}
}

// A damaged middle chunk must not decode: the inflater or the member's
// CRC-32 rejects it.
func TestDecompressRejectsCorruptMiddleChunk(t *testing.T) {
	acq := shapedAcquisition(8, 13500)
	payload, err := CompressAcquisition(acq)
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
	bad := bytes.Clone(payload)
	bad[data+int64(zr.File[0].CompressedSize64)/2] ^= 0x10
	if _, err := DecompressAcquisition(bad); err == nil {
		t.Fatal("a flipped byte in a middle chunk decoded without error")
	}
}

func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	for _, cut := range []int{0, 1, 7, 2500, 4999, 5000} {
		a, b := data[:cut], data[cut:]
		got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), len(b))
		if want := crc32.ChecksumIEEE(data); got != want {
			t.Fatalf("cut %d: combined %08x, want %08x", cut, got, want)
		}
	}
}

// Encoder scratch is a few buffers and one compressor per worker, never a
// per-row or per-field allocation. Each worker allocates about 20 objects,
// so the pin runs at a fixed two workers.
func TestCompressAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	acq := shapedAcquisition(8, 13500)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := CompressAcquisition(acq); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("CompressAcquisition allocs/op = %.0f, want <= 64", allocs)
	}
}

package csvio

import (
	"archive/zip"
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"medsen/internal/drbg"
	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

func testAcquisition(t *testing.T, seconds float64) lockin.Acquisition {
	t.Helper()
	rng := drbg.NewFromSeed(61)
	carriers := []float64{500e3, 2000e3}
	traces := make([]sigproc.Trace, len(carriers))
	n := int(seconds * 450)
	for c := range carriers {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = 1 + 0.001*rng.NormFloat64()
		}
		traces[c] = sigproc.Trace{Rate: 450, Samples: samples}
	}
	return lockin.Acquisition{CarriersHz: carriers, Traces: traces}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	acq := testAcquisition(t, 2)
	var buf bytes.Buffer
	if err := EncodeAcquisition(&buf, acq); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeAcquisition(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.CarriersHz) != 2 || got.CarriersHz[0] != 500e3 || got.CarriersHz[1] != 2000e3 {
		t.Fatalf("carriers = %v", got.CarriersHz)
	}
	if math.Abs(got.Traces[0].Rate-450) > 0.01 {
		t.Fatalf("recovered rate %v, want 450", got.Traces[0].Rate)
	}
	for c := range acq.Traces {
		if len(got.Traces[c].Samples) != len(acq.Traces[c].Samples) {
			t.Fatalf("trace %d length mismatch", c)
		}
		for i := range acq.Traces[c].Samples {
			if got.Traces[c].Samples[i] != acq.Traces[c].Samples[i] {
				t.Fatalf("trace %d sample %d: %v != %v", c, i,
					got.Traces[c].Samples[i], acq.Traces[c].Samples[i])
			}
		}
	}
}

func TestEncodeValidations(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeAcquisition(&buf, lockin.Acquisition{}); err == nil {
		t.Error("expected error for empty acquisition")
	}
	acq := testAcquisition(t, 1)
	acq.Traces[1].Samples = acq.Traces[1].Samples[:10]
	if err := EncodeAcquisition(&buf, acq); err == nil {
		t.Error("expected error for ragged traces")
	}
	acq = testAcquisition(t, 1)
	acq.Traces[1].Rate = 100
	if err := EncodeAcquisition(&buf, acq); err == nil {
		t.Error("expected error for mismatched rates")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"bad header", "foo,bar\n1,2\n"},
		{"bad channel column", "time_s,chX\n0,1\n"},
		{"one sample only", "time_s,ch_500000Hz\n0,1\n"},
		{"bad time", "time_s,ch_500000Hz\nx,1\n0.1,1\n"},
		{"bad value", "time_s,ch_500000Hz\n0,x\n0.1,1\n"},
		{"ragged row", "time_s,ch_500000Hz\n0,1,9\n"},
		{"NaN first time", "time_s,ch_500000Hz\nNaN,1\n0.1,1\n"},
		{"NaN last time", "time_s,ch_500000Hz\n0,1\nNaN,1\n"},
		{"+Inf last time", "time_s,ch_500000Hz\n0,1\n+Inf,1\n"},
		{"+Inf first time", "time_s,ch_500000Hz\n+Inf,1\n0.1,1\n"},
		{"-Inf first time", "time_s,ch_500000Hz\n-Inf,1\n0.1,1\n"},
		{"equal endpoints", "time_s,ch_500000Hz\n0.1,1\n0.2,1\n0.1,1\n"},
		{"decreasing endpoints", "time_s,ch_500000Hz\n0.2,1\n0.1,1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeAcquisition(strings.NewReader(tc.csv))
			if err == nil {
				t.Fatalf("expected error for %q", tc.csv)
			}
			if tc.name != "empty" && !errors.Is(err, ErrBadCSV) {
				t.Fatalf("error %v should wrap ErrBadCSV", err)
			}
		})
	}
}

func TestCompressRoundTrip(t *testing.T) {
	acq := testAcquisition(t, 3)
	data, err := CompressAcquisition(acq)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	got, err := DecompressAcquisition(data)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if len(got.Traces) != len(acq.Traces) {
		t.Fatalf("trace count %d", len(got.Traces))
	}
	for i := range acq.Traces[0].Samples {
		if got.Traces[0].Samples[i] != acq.Traces[0].Samples[i] {
			t.Fatal("samples corrupted through zip round trip")
		}
	}
}

func TestCompressionShrinksPayload(t *testing.T) {
	// §VII-B reports ~2.5× shrink (600 MB → 240 MB) on real captures.
	acq := testAcquisition(t, 10)
	raw, err := CSVSize(acq)
	if err != nil {
		t.Fatalf("CSVSize: %v", err)
	}
	compressed, err := CompressAcquisition(acq)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	ratio := float64(raw) / float64(len(compressed))
	if ratio < 1.5 {
		t.Fatalf("compression ratio %.2f, want > 1.5 (raw %d, zip %d)",
			ratio, raw, len(compressed))
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := DecompressAcquisition([]byte("not a zip")); err == nil {
		t.Fatal("expected error for non-zip data")
	}
}

func TestDecompressRejectsMissingMember(t *testing.T) {
	// A valid zip without measurements.csv.
	var buf bytes.Buffer
	data, err := CompressAcquisition(testAcquisition(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	_ = data
	// Build a zip with a wrong member name by re-zipping manually.
	buf.Reset()
	zw := newZipWithMember(t, &buf, "other.csv", "hello")
	_ = zw
	if _, err := DecompressAcquisition(buf.Bytes()); err == nil {
		t.Fatal("expected error for archive without measurements.csv")
	}
}

func TestCSVSizeMatchesEncoding(t *testing.T) {
	acq := testAcquisition(t, 2)
	size, err := CSVSize(acq)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeAcquisition(&buf, acq); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != size {
		t.Fatalf("CSVSize %d != encoded length %d", size, buf.Len())
	}
}

// newZipWithMember writes a zip with a single named member into buf.
func newZipWithMember(t *testing.T, buf *bytes.Buffer, name, content string) struct{} {
	t.Helper()
	zw := zip.NewWriter(buf)
	f, err := zw.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return struct{}{}
}

package csvio

import (
	"archive/zip"
	"bytes"
	"strings"
	"testing"

	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

// FuzzDecodeAcquisition hardens the CSV decoder: arbitrary text must yield
// an error or a structurally consistent acquisition, never a panic. It is
// also differential against the encoding/csv reference: the decoder accepts
// only what the reference accepts, with bitwise-equal carriers, rate and
// samples, and rejects what the reference accepts only for the rate rule.
func FuzzDecodeAcquisition(f *testing.F) {
	f.Add("time_s,ch_500000Hz\n0,1\n0.002,0.99\n")
	f.Add("time_s,ch_500000Hz,ch_2000000Hz\n0,1,1\n0.002,1,1\n0.004,0.9,0.95\n")
	f.Add("")
	f.Add("garbage")
	f.Add("time_s,chX\n0,1\n")
	f.Add(`"time_s","ch_500000Hz"` + "\n\"0\",1\n0.002,\"0.99\"\n")
	f.Add("time_s,\"ch_500000Hz\"\"x\"\n0,1\n0.002,0.99\n")
	f.Add("time_s,\"ch_500000Hz\n,\"\n0,1\n0.002,0.99\n")
	f.Add("time_s,ch_500000Hz\r\n0,1\r\n0.002,0.99\r\n")
	f.Add("\n\r\ntime_s,ch_500000Hz\n\n0,1\n\r\n\n0.002,0.99\n\n")
	f.Add("time_s,ch_500000Hz\n0,1\n0.002,0.99")
	f.Add("time_s,ch_500000Hz\n0,1\n0.002,0.99\r")
	f.Add("time_s,ch_500000Hz\nNaN,1\n0.002,0.99\n")
	f.Add("time_s,ch_500000Hz\n0.002,1\n0.002,0.99\n")
	f.Add(string(straddlingCSV(f, 2, 5*blockBytes/(2*fieldBytes*3))))

	f.Fuzz(func(t *testing.T, csv string) {
		acq, err := DecodeAcquisition(strings.NewReader(csv))
		want, refErr := referenceDecode(strings.NewReader(csv))
		checkDifferential(t, acq, err, want, refErr)
		if err != nil {
			return
		}
		if len(acq.CarriersHz) != len(acq.Traces) {
			t.Fatal("accepted acquisition with mismatched carriers/traces")
		}
		n := len(acq.Traces[0].Samples)
		for _, tr := range acq.Traces {
			if len(tr.Samples) != n {
				t.Fatal("accepted ragged acquisition")
			}
		}
	})
}

// FuzzDecompressAcquisition hardens the zip layer of the untrusted upload:
// arbitrary bytes must yield an error or a consistent acquisition, never a
// panic. The seeds are a real chunked payload, a truncated one and one with
// its member CRC-32 flipped.
func FuzzDecompressAcquisition(f *testing.F) {
	// 64 carriers of constant samples cut into chunks of a hundred rows
	// and deflate to about a kilobyte: a chunked payload small enough to
	// mutate quickly.
	acq := lockin.Acquisition{
		CarriersHz: make([]float64, 64),
		Traces:     make([]sigproc.Trace, 64),
	}
	for c := range acq.Traces {
		acq.CarriersHz[c] = float64(500e3 + 1e3*c)
		acq.Traces[c] = sigproc.Trace{Rate: 450, Samples: make([]float64, 250)}
	}
	payload, err := CompressAcquisition(acq)
	if err != nil {
		f.Fatal(err)
	}
	if e, _ := newEncoder(acq); e.chunks < 3 {
		f.Fatalf("seed payload has %d chunks, want a middle one", e.chunks)
	}
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	zr, err := zip.NewReader(bytes.NewReader(payload), int64(len(payload)))
	if err != nil {
		f.Fatal(err)
	}
	data, err := zr.File[0].DataOffset()
	if err != nil {
		f.Fatal(err)
	}
	// The data descriptor follows the member's data: signature, then CRC-32.
	flipped := bytes.Clone(payload)
	flipped[data+int64(zr.File[0].CompressedSize64)+4] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		acq, err := DecompressAcquisition(data)
		want, refErr := referenceDecompress(data)
		checkDifferential(t, acq, err, want, refErr)
		if err != nil {
			return
		}
		if len(acq.CarriersHz) != len(acq.Traces) || len(acq.Traces) == 0 {
			t.Fatal("accepted acquisition with mismatched carriers/traces")
		}
		n := len(acq.Traces[0].Samples)
		for _, tr := range acq.Traces {
			if len(tr.Samples) != n || tr.Rate != acq.Traces[0].Rate {
				t.Fatal("accepted ragged acquisition")
			}
		}
	})
}

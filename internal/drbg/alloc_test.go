package drbg

import "testing"

// The generator is the innermost loop of transit generation and the key
// schedule, so its steady state must not allocate at all.
// These pins are the drbg-side counterpart of the detrend/peak alloc pins
// in internal/sigproc.

func TestGenerateAllocFree(t *testing.T) {
	d := NewFromSeed(1)
	buf := make([]byte, 8)
	if avg := testing.AllocsPerRun(200, func() {
		if err := d.Generate(buf); err != nil {
			t.Fatalf("Generate: %v", err)
		}
	}); avg != 0 {
		t.Errorf("Generate allocates %v per call, want 0", avg)
	}
}

func TestDerivedDrawsAllocFree(t *testing.T) {
	d := NewFromSeed(2)
	if avg := testing.AllocsPerRun(200, func() { d.Uint64() }); avg != 0 {
		t.Errorf("Uint64 allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { d.NormFloat64() }); avg != 0 {
		t.Errorf("NormFloat64 allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { d.Intn(17) }); avg != 0 {
		t.Errorf("Intn allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { d.Poisson(20) }); avg != 0 {
		t.Errorf("Poisson allocates %v per call, want 0", avg)
	}
}

func BenchmarkUint64(b *testing.B) {
	d := NewFromSeed(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Uint64()
	}
}

func BenchmarkGenerate256(b *testing.B) {
	d := NewFromSeed(1)
	buf := make([]byte, 256)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if err := d.Generate(buf); err != nil {
			b.Fatalf("Generate: %v", err)
		}
	}
}

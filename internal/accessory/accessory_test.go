package accessory

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: FrameHello, Payload: []byte("hi")},
		{Type: FrameData, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{Type: FrameAck},
		{Type: FrameProgress, Payload: []byte("37%")},
		{Type: FrameError, Payload: []byte("boom")},
		{Type: FrameEnd},
	}
	for _, f := range cases {
		t.Run(f.Type.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, f); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			got, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
			}
		})
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte, typ uint8) bool {
		frame := Frame{Type: FrameType(typ%6 + 1), Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, frame); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return got.Type == frame.Type && bytes.Equal(got.Payload, frame.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, Frame{Type: FrameData, Payload: make([]byte, MaxPayload+1)})
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("expected ErrOversized, got %v", err)
	}
}

func TestReadFrameDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameData, Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a payload bit.
	corrupted := append([]byte(nil), data...)
	corrupted[headerLen] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(corrupted)); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("expected ErrBadCRC, got %v", err)
	}

	// Break the magic.
	corrupted = append([]byte(nil), data...)
	corrupted[0] = 0x00
	if _, err := ReadFrame(bytes.NewReader(corrupted)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("expected ErrBadMagic, got %v", err)
	}

	// Truncate.
	if _, err := ReadFrame(bytes.NewReader(data[:5])); err == nil {
		t.Fatal("expected error for truncated frame")
	}

	// Oversized declared length.
	huge := []byte{frameMagic0, frameMagic1, byte(FrameData), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrOversized) {
		t.Fatalf("expected ErrOversized, got %v", err)
	}
}

func TestIdentityEncodeDecode(t *testing.T) {
	id := Identity{Manufacturer: "MedSen", Model: "BioSensor-9", Version: "1.0"}
	got, err := decodeIdentity(encodeIdentity(id))
	if err != nil {
		t.Fatal(err)
	}
	if got != id {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := decodeIdentity([]byte{0, 5}); !errors.Is(err, ErrBadHello) {
		t.Fatalf("expected ErrBadHello, got %v", err)
	}
	if _, err := decodeIdentity(append(encodeIdentity(id), 0x00)); !errors.Is(err, ErrBadHello) {
		t.Fatalf("trailing bytes: expected ErrBadHello, got %v", err)
	}
}

// duplex runs both handshake sides over a net.Pipe.
func duplex(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	type result struct {
		conn *Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := Handshake(b, Identity{Manufacturer: "Google", Model: "Nexus 5", Version: "4.4"})
		ch <- result{conn, err}
	}()
	controller, err := Handshake(a, DefaultIdentity())
	if err != nil {
		t.Fatalf("controller handshake: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("phone handshake: %v", r.err)
	}
	return controller, r.conn
}

func TestHandshakeExchangesIdentities(t *testing.T) {
	controller, phone := duplex(t)
	if controller.Peer.Model != "Nexus 5" {
		t.Fatalf("controller sees peer %+v", controller.Peer)
	}
	if phone.Peer.Manufacturer != "MedSen" {
		t.Fatalf("phone sees peer %+v", phone.Peer)
	}
}

func TestSendReceiveDataChunked(t *testing.T) {
	controller, phone := duplex(t)
	payload := bytes.Repeat([]byte("medsen-measurements-"), 200000) // ~4 MB, multiple frames

	var progress []string
	type recvResult struct {
		data []byte
		err  error
	}
	ch := make(chan recvResult, 1)
	go func() {
		data, err := phone.ReceiveData(func(s string) { progress = append(progress, s) })
		ch <- recvResult{data, err}
	}()

	if err := controller.SendProgress("starting"); err != nil {
		t.Fatal(err)
	}
	frames, err := controller.SendData(payload)
	if err != nil {
		t.Fatalf("SendData: %v", err)
	}
	if frames < 2 {
		t.Fatalf("expected chunked transfer, got %d frames", frames)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("ReceiveData: %v", r.err)
	}
	if !bytes.Equal(r.data, payload) {
		t.Fatal("payload corrupted in transfer")
	}
	if len(progress) != 1 || progress[0] != "starting" {
		t.Fatalf("progress = %v", progress)
	}
}

func TestReceiveDataPropagatesErrorFrame(t *testing.T) {
	controller, phone := duplex(t)
	ch := make(chan error, 1)
	go func() {
		_, err := phone.ReceiveData(nil)
		ch <- err
	}()
	if err := WriteFrame(controllerRW(controller), Frame{Type: FrameError, Payload: []byte("pump stall")}); err != nil {
		t.Fatal(err)
	}
	if err := <-ch; !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected ErrInterrupted, got %v", err)
	}
}

func TestHandshakeRejectsNonHello(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// Misbehaving peer: reads the hello, answers with data.
		_, _ = ReadFrame(b)
		_ = WriteFrame(b, Frame{Type: FrameData, Payload: []byte("x")})
	}()
	if _, err := Handshake(a, DefaultIdentity()); !errors.Is(err, ErrUnexpected) {
		t.Fatalf("expected ErrUnexpected, got %v", err)
	}
}

// controllerRW exposes the underlying transport for fault-injection tests.
func controllerRW(c *Conn) io.ReadWriter { return c.rw }

func TestFrameTypeStrings(t *testing.T) {
	cases := map[FrameType]string{
		FrameHello:    "hello",
		FrameData:     "data",
		FrameAck:      "ack",
		FrameProgress: "progress",
		FrameError:    "error",
		FrameEnd:      "end",
		FrameDataSeq:  "data-seq",
		FrameAckSeq:   "ack-seq",
		FrameNackSeq:  "nack-seq",
		FrameEndSeq:   "end-seq",
		FrameType(99): "frame(99)",
	}
	for ft, want := range cases {
		if got := ft.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ft, got, want)
		}
	}
}

// Receiving a capture-sized upload allocates the payload once: ReadFrame
// hands its read buffer to the caller and ReceiveData adopts the first data
// frame's slice, so the bytes allocated stay within 1.1× the payload.
func TestReceiveDataAllocatesPayloadOnce(t *testing.T) {
	const size = 830 << 10
	payload := bytes.Repeat([]byte("0.99871,"), size/8)
	var wire bytes.Buffer
	if err := WriteFrame(&wire, Frame{Type: FrameData, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&wire, Frame{Type: FrameEnd}); err != nil {
		t.Fatal(err)
	}
	stream := wire.Bytes()

	const runs = 5
	var got []byte
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c := &Conn{rw: fuzzSink{bytes.NewReader(stream)}}
		var err error
		if got, err = c.ReceiveData(nil); err != nil {
			t.Fatalf("ReceiveData: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if !bytes.Equal(got, payload) {
		t.Fatal("received payload differs from the one sent")
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.1 * float64(len(payload)); perRun > limit {
		t.Fatalf("receiving a %d-byte frame allocated %.0f bytes, want <= %.0f", len(payload), perRun, limit)
	}
}

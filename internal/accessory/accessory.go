// Package accessory implements the framed controller↔phone link of §VI-D.
// The prototype connects the Raspberry Pi controller to the Android phone
// over USB using the Android Open Accessory protocol: the accessory
// identifies itself (manufacturer, model, version), the phone launches the
// companion app, and the two sides exchange length-prefixed messages.
//
// This package reproduces that link as a transport-agnostic framed protocol
// over any io.ReadWriter: a handshake exchanging identity strings followed
// by CRC32-protected data frames. No security properties are claimed for
// this layer — the phone is untrusted (§II threat model) and everything
// valuable crossing it is already ciphertext.
package accessory

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Identity is the accessory identification exchanged at handshake, mirroring
// the AOA identification strings.
type Identity struct {
	Manufacturer string
	Model        string
	Version      string
}

// DefaultIdentity is the MedSen dongle identity.
func DefaultIdentity() Identity {
	return Identity{Manufacturer: "MedSen", Model: "BioSensor-9", Version: "1.0"}
}

// FrameType tags the payload of one frame.
type FrameType uint8

// Frame types.
const (
	// FrameHello carries an encoded Identity (handshake, both ways).
	FrameHello FrameType = iota + 1
	// FrameData carries an opaque payload chunk (measurement upload).
	FrameData
	// FrameAck acknowledges the most recent data frame.
	FrameAck
	// FrameProgress carries a UTF-8 status string for the phone UI
	// ("provides a test progression feedback to the user", §VI-D).
	FrameProgress
	// FrameError carries a UTF-8 error description.
	FrameError
	// FrameEnd marks the end of a multi-frame transfer.
	FrameEnd
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameData:
		return "data"
	case FrameAck:
		return "ack"
	case FrameProgress:
		return "progress"
	case FrameError:
		return "error"
	case FrameEnd:
		return "end"
	case FrameDataSeq:
		return "data-seq"
	case FrameAckSeq:
		return "ack-seq"
	case FrameNackSeq:
		return "nack-seq"
	case FrameEndSeq:
		return "end-seq"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// Frame is one protocol unit.
type Frame struct {
	Type    FrameType
	Payload []byte
}

const (
	frameMagic0 = 0xA0
	frameMagic1 = 0xA7
	// MaxPayload bounds one frame; large transfers are chunked.
	MaxPayload = 1 << 20
	headerLen  = 2 + 1 + 4 // magic, type, length
	crcLen     = 4
)

// Protocol errors.
var (
	ErrBadMagic    = errors.New("accessory: bad frame magic")
	ErrBadCRC      = errors.New("accessory: frame CRC mismatch")
	ErrOversized   = errors.New("accessory: frame payload exceeds limit")
	ErrBadHello    = errors.New("accessory: malformed hello payload")
	ErrUnexpected  = errors.New("accessory: unexpected frame type")
	ErrInterrupted = errors.New("accessory: transfer interrupted")
)

// WriteFrame encodes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrOversized, len(f.Payload))
	}
	buf := make([]byte, headerLen+len(f.Payload)+crcLen)
	buf[0] = frameMagic0
	buf[1] = frameMagic1
	buf[2] = byte(f.Type)
	binary.BigEndian.PutUint32(buf[3:7], uint32(len(f.Payload)))
	copy(buf[headerLen:], f.Payload)
	crc := crc32.ChecksumIEEE(buf[2 : headerLen+len(f.Payload)])
	binary.BigEndian.PutUint32(buf[headerLen+len(f.Payload):], crc)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("accessory: writing frame: %w", err)
	}
	return nil
}

// ReadFrame decodes one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	var header [headerLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return Frame{}, fmt.Errorf("accessory: reading header: %w", err)
	}
	if header[0] != frameMagic0 || header[1] != frameMagic1 {
		return Frame{}, ErrBadMagic
	}
	length := binary.BigEndian.Uint32(header[3:7])
	if length > MaxPayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrOversized, length)
	}
	// The payload is read once and returned in place, capped so an append
	// by the caller cannot overwrite the CRC bytes.
	rest := make([]byte, int(length)+crcLen)
	if _, err := io.ReadFull(r, rest); err != nil {
		return Frame{}, fmt.Errorf("accessory: reading payload: %w", err)
	}
	crc := crc32.Update(crc32.ChecksumIEEE(header[2:7]), crc32.IEEETable, rest[:length])
	if crc != binary.BigEndian.Uint32(rest[length:]) {
		return Frame{}, ErrBadCRC
	}
	out := Frame{Type: FrameType(header[2])}
	if length > 0 {
		out.Payload = rest[:length:length]
	}
	return out, nil
}

// encodeIdentity packs identity strings with length prefixes.
func encodeIdentity(id Identity) []byte {
	parts := []string{id.Manufacturer, id.Model, id.Version}
	size := 0
	for _, p := range parts {
		size += 2 + len(p)
	}
	buf := make([]byte, 0, size)
	for _, p := range parts {
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(p)))
		buf = append(buf, l[:]...)
		buf = append(buf, p...)
	}
	return buf
}

func decodeIdentity(data []byte) (Identity, error) {
	fields := make([]string, 0, 3)
	off := 0
	for i := 0; i < 3; i++ {
		if off+2 > len(data) {
			return Identity{}, ErrBadHello
		}
		l := int(binary.BigEndian.Uint16(data[off : off+2]))
		off += 2
		if off+l > len(data) {
			return Identity{}, ErrBadHello
		}
		fields = append(fields, string(data[off:off+l]))
		off += l
	}
	if off != len(data) {
		return Identity{}, ErrBadHello
	}
	return Identity{Manufacturer: fields[0], Model: fields[1], Version: fields[2]}, nil
}

// Conn is one side of an accessory link after handshake.
type Conn struct {
	rw io.ReadWriter
	// br buffers reads once any Conn method has read from the link, so
	// the reliable channel can resynchronize by peeking.
	br *bufio.Reader
	// Peer is the remote side's identity.
	Peer Identity
}

// Handshake exchanges hello frames over rw and returns the established
// connection. Both sides call Handshake with their own identity. The hello
// is written concurrently with reading the peer's hello so the exchange
// works over fully synchronous transports (net.Pipe) as well as buffered
// ones (sockets, USB bulk endpoints).
func Handshake(rw io.ReadWriter, self Identity) (*Conn, error) {
	writeDone := make(chan error, 1)
	go func() {
		writeDone <- WriteFrame(rw, Frame{Type: FrameHello, Payload: encodeIdentity(self)})
	}()
	f, readErr := ReadFrame(rw)
	writeErr := <-writeDone
	if writeErr != nil {
		return nil, writeErr
	}
	if readErr != nil {
		return nil, readErr
	}
	if f.Type != FrameHello {
		return nil, fmt.Errorf("%w: got %v during handshake", ErrUnexpected, f.Type)
	}
	peer, err := decodeIdentity(f.Payload)
	if err != nil {
		return nil, err
	}
	return &Conn{rw: rw, Peer: peer}, nil
}

// SendData streams a payload as acknowledged data frames followed by an end
// frame. It reports transfer statistics.
func (c *Conn) SendData(data []byte) (frames int, err error) {
	for off := 0; off < len(data); off += MaxPayload {
		end := off + MaxPayload
		if end > len(data) {
			end = len(data)
		}
		if err := WriteFrame(c.rw, Frame{Type: FrameData, Payload: data[off:end]}); err != nil {
			return frames, err
		}
		ack, err := ReadFrame(c.reader())
		if err != nil {
			return frames, err
		}
		if ack.Type == FrameError {
			return frames, fmt.Errorf("%w: %s", ErrInterrupted, ack.Payload)
		}
		if ack.Type != FrameAck {
			return frames, fmt.Errorf("%w: got %v awaiting ack", ErrUnexpected, ack.Type)
		}
		frames++
	}
	if err := WriteFrame(c.rw, Frame{Type: FrameEnd}); err != nil {
		return frames, err
	}
	return frames, nil
}

// ReceiveData consumes data frames (acknowledging each) until the end frame
// and returns the reassembled payload. Progress frames interleaved by the
// sender are passed to onProgress (may be nil).
func (c *Conn) ReceiveData(onProgress func(string)) ([]byte, error) {
	var out []byte
	for {
		f, err := ReadFrame(c.reader())
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case FrameData:
			if out == nil {
				out = f.Payload // adopt the frame's buffer: no copy for one frame
			} else {
				out = append(out, f.Payload...)
			}
			if err := WriteFrame(c.rw, Frame{Type: FrameAck}); err != nil {
				return nil, err
			}
		case FrameProgress:
			if onProgress != nil {
				onProgress(string(f.Payload))
			}
		case FrameEnd:
			return out, nil
		case FrameError:
			return nil, fmt.Errorf("%w: %s", ErrInterrupted, f.Payload)
		default:
			return nil, fmt.Errorf("%w: %v", ErrUnexpected, f.Type)
		}
	}
}

// SendProgress emits a progress frame (controller → phone UI).
func (c *Conn) SendProgress(status string) error {
	return WriteFrame(c.rw, Frame{Type: FrameProgress, Payload: []byte(status)})
}

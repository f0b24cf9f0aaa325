package csvio

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

const (
	// blockBytes is the size of the blocks the reading stage fills.
	blockBytes = 64 << 10
	// blocksInFlight is how many blocks one decode allocates and cycles
	// between its stages: the reader runs at most this far ahead.
	blocksInFlight = 4
	// maxEmptyReads is how many reads in a row may return no bytes and no
	// error before the reading stage gives up, as bufio does.
	maxEmptyReads = 100
)

// block is one fill of a buffer from the source. err is set on the last
// block only: io.EOF for a clean end, otherwise the read error.
type block struct {
	data []byte
	err  error
}

// reader is the decode's first stage: a goroutine that fills blocks from
// the source and hands them over in order. Its blocks are allocated per
// decode and cycle through free.
type reader struct {
	full     chan block
	free     chan []byte
	stop     chan struct{}
	finished chan struct{}
}

func startReader(src io.Reader) *reader {
	// Both channels hold every block at once, so neither the scanner's
	// recycling send nor the reader's data sends ever wait.
	r := &reader{
		full:     make(chan block, blocksInFlight),
		free:     make(chan []byte, blocksInFlight),
		stop:     make(chan struct{}),
		finished: make(chan struct{}),
	}
	arena := make([]byte, blocksInFlight*blockBytes)
	for i := 0; i < blocksInFlight; i++ {
		r.free <- arena[i*blockBytes : (i+1)*blockBytes : (i+1)*blockBytes]
	}
	go r.run(src)
	return r
}

func (r *reader) run(src io.Reader) {
	defer close(r.finished)
	// A panic here is outside any recover of the decode's caller, so it
	// becomes the decode's error.
	defer func() {
		if p := recover(); p != nil {
			r.send(block{err: fmt.Errorf("csvio: reading the measurements panicked: %v", p)})
		}
	}()
	for {
		var buf []byte
		select {
		case buf = <-r.free:
		case <-r.stop:
			return
		}
		n, err := fill(src, buf)
		if !r.send(block{data: buf[:n], err: err}) || err != nil {
			return
		}
	}
}

// send hands b to the scanner, or reports false once the decode has stopped.
func (r *reader) send(b block) bool {
	select {
	case r.full <- b:
		return true
	case <-r.stop:
		return false
	}
}

// close stops the reading stage and waits for its goroutine to return.
func (r *reader) close() {
	close(r.stop)
	<-r.finished
}

// fill reads src into buf until buf is full or the read fails; io.EOF marks
// the clean end of src.
func fill(src io.Reader, buf []byte) (int, error) {
	n, empty := 0, 0
	for n < len(buf) {
		m, err := src.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
		if m > 0 {
			empty = 0
		} else if empty++; empty == maxEmptyReads {
			return n, io.ErrNoProgress
		}
	}
	return n, nil
}

// scanner is the decode's second stage, on the caller's goroutine: it cuts
// the reader's blocks into lines.
type scanner struct {
	r     *reader
	cur   []byte // the block being scanned, recycled on the next pull
	rest  []byte // its unscanned bytes
	carry []byte // a line that straddles blocks
	last  bool   // cur is the last block
	err   error  // the last block's error; io.EOF after a clean end
}

// next returns the next line without its '\n'. It returns false at the end
// of the input or on a read error, which s.err then holds. The line is
// valid until the next call.
func (s *scanner) next() ([]byte, bool) {
	if i := bytes.IndexByte(s.rest, '\n'); i >= 0 {
		line := s.rest[:i]
		s.rest = s.rest[i+1:]
		return line, true
	}
	// The line straddles blocks, or it is the last one.
	s.carry = append(s.carry[:0], s.rest...)
	s.rest = nil
	for s.pull() {
		if i := bytes.IndexByte(s.rest, '\n'); i >= 0 {
			s.carry = append(s.carry, s.rest[:i]...)
			s.rest = s.rest[i+1:]
			return s.carry, true
		}
		s.carry = append(s.carry, s.rest...)
		s.rest = nil
	}
	// A line cut short by a read error is not returned.
	return s.carry, s.err == io.EOF && len(s.carry) > 0
}

// pull recycles the current block and receives the next one. It reports
// false once the last block has been scanned.
func (s *scanner) pull() bool {
	if s.last {
		return false
	}
	if s.cur != nil {
		s.r.free <- s.cur[:cap(s.cur)]
	}
	b := <-s.r.full
	s.cur, s.rest = b.data, b.data
	if b.err != nil {
		s.last, s.err = true, b.err
	}
	return true
}

// headerRecord returns the raw bytes of the input's first record, skipping
// empty lines before it as encoding/csv does. The record ends at the first
// line end outside a quoted field, which is where the number of quotes so
// far is even: a well-formed quoted field holds an even number, opening and
// closing quote plus doubled ones, and encoding/csv rejects any other quote
// before it reaches that line end. It returns false if the input ends
// first.
func (s *scanner) headerRecord() ([]byte, bool) {
	var rec []byte
	quotes := 0
	for {
		line, ok := s.next()
		if !ok {
			return rec, false
		}
		if len(rec) == 0 && len(trimCR(line)) == 0 {
			continue
		}
		rec = append(append(rec, line...), '\n')
		if quotes += bytes.Count(line, quote); quotes%2 == 0 {
			return rec, true
		}
	}
}

var (
	comma = []byte{','}
	quote = []byte{'"'}
)

// trimCR drops one trailing '\r': encoding/csv reads "\r\n" as a line end
// and drops a '\r' before the end of the input.
func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// parseField parses one CSV field as a float. A field wrapped in one pair
// of quotes is unwrapped; any other quote, and so any quoted field that
// encoding/csv would read differently, fails to parse.
func parseField(f []byte) (float64, error) {
	if n := len(f); n >= 2 && f[0] == '"' && f[n-1] == '"' {
		f = f[1 : n-1]
	}
	return strconv.ParseFloat(string(f), 64)
}

// decodeAcquisition runs the two-stage decode: a goroutine reads src into
// blocks while the caller's goroutine scans them into samples. The
// acquisition is returned only after src has ended cleanly, so an error
// the source reports at its end (a zip member's CRC-32) fails the decode.
func decodeAcquisition(src io.Reader, buf *DecodeBuffer) (lockin.Acquisition, error) {
	r := startReader(src)
	defer r.close()
	s := scanner{r: r}

	rec, ok := s.headerRecord()
	if !ok && s.err != io.EOF {
		return lockin.Acquisition{}, fmt.Errorf("%w: missing header: %w", ErrBadCSV, s.err)
	}
	header, err := csv.NewReader(bytes.NewReader(rec)).Read()
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
		line, ok := s.next()
		if !ok {
			break
		}
		line = trimCR(line)
		if len(line) == 0 {
			continue
		}
		if n := bytes.Count(line, comma) + 1; n != len(carriers)+1 {
			return lockin.Acquisition{}, fmt.Errorf("%w: row has %d fields, want %d",
				ErrBadCSV, n, len(carriers)+1)
		}
		i := bytes.IndexByte(line, ',')
		t, err := parseField(line[:i])
		if err != nil {
			return lockin.Acquisition{}, fmt.Errorf("%w: bad time %q", ErrBadCSV, line[:i])
		}
		if rows == 0 {
			tFirst = t
		}
		tLast = t
		rows++
		line = line[i+1:]
		for c := range carriers {
			field := line
			if i := bytes.IndexByte(line, ','); i >= 0 {
				field, line = line[:i], line[i+1:]
			}
			v, err := parseField(field)
			if err != nil {
				return lockin.Acquisition{}, fmt.Errorf("%w: bad value %q", ErrBadCSV, field)
			}
			samples[c] = append(samples[c], v)
		}
	}
	if s.err != io.EOF {
		return lockin.Acquisition{}, fmt.Errorf("%w: %w", ErrBadCSV, s.err)
	}
	if rows < 2 {
		return lockin.Acquisition{}, fmt.Errorf("%w: need at least 2 samples", ErrBadCSV)
	}
	// Equal or decreasing end times, or a non-finite one, give no sample
	// rate a trace can carry.
	rate := float64(rows-1) / (tLast - tFirst)
	if !(rate > 0) || math.IsInf(rate, 1) {
		return lockin.Acquisition{}, fmt.Errorf("%w: time column from %v to %v over %d rows gives sample rate %v",
			ErrBadCSV, tFirst, tLast, rows, rate)
	}

	acq := lockin.Acquisition{
		CarriersHz: carriers,
		Traces:     make([]sigproc.Trace, len(carriers)),
	}
	for c := range carriers {
		acq.Traces[c] = sigproc.Trace{Rate: rate, Samples: samples[c]}
	}
	return acq, nil
}

package snapshot

import (
	"encoding/binary"
	"io"
)

// MaxFrameLen bounds one streamed frame. Frames hold bounded request
// batches or admin records, not whole-cache state, so anything past
// this is corruption, not data.
const MaxFrameLen = 64 << 20

// FrameWriter appends length-prefixed MOLC1 containers to a stream —
// the layout of molcached's access journal. Each frame is a uint32
// little-endian payload length followed by one Encode()d container, so
// every frame carries the container's own section and payload CRCs and
// a torn tail is detectable as a short read.
type FrameWriter struct {
	w   io.Writer
	buf []byte // the frame being written, reused across frames
}

// NewFrameWriter wraps w. The caller owns buffering and sync.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteFrame encodes sections as one container and appends it. The
// frame is built in a buffer the writer reuses, so once the buffer has
// grown a stream of small frames allocates nothing.
func (fw *FrameWriter) WriteFrame(sections []Section) error {
	buf, err := appendEncode(append(fw.buf[:0], 0, 0, 0, 0), sections)
	if err != nil {
		return err
	}
	fw.buf = buf
	n := len(buf) - 4
	if n > MaxFrameLen {
		return errf("frame", "frame length %d exceeds cap %d", n, MaxFrameLen)
	}
	binary.LittleEndian.PutUint32(buf, uint32(n))
	_, err = fw.w.Write(buf)
	return err
}

// FrameReader iterates the frames of a journal stream.
type FrameReader struct {
	r io.Reader
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// ReadFrame returns the next frame's sections. A clean end of stream is
// io.EOF; a partial length prefix, truncated payload, oversized length
// or corrupt container is a typed *Error.
func (fr *FrameReader) ReadFrame() ([]Section, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errf("frame", "truncated length prefix: %v", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameLen {
		return nil, errf("frame", "frame length %d exceeds cap %d", n, MaxFrameLen)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(fr.r, data); err != nil {
		return nil, errf("frame", "truncated frame body: %v", err)
	}
	return Decode(data)
}

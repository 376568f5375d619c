package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"congame/internal/fluid"
)

// Binary snapshot format (DESIGN.md §13): a 4-byte magic, a little-endian
// uint16 format version, the kind-dependent payload, and a trailing CRC-32
// (IEEE) over everything before it. All integers are little-endian;
// floats are stored as their IEEE-754 bit patterns, so a decode returns
// the exact bits the encode saw. Slices are length-prefixed with uint64
// counts; counts are validated against the remaining buffer before any
// allocation, so a corrupt or truncated file fails cleanly instead of
// over-allocating. A NaN float is rejected: no trajectory state is NaN,
// and a NaN would make a decoded snapshot unequal to itself.

var magic = [4]byte{'C', 'G', 'C', 'K'}

// FormatVersion is the snapshot format version this build reads and
// writes. Decoders reject other versions loudly — a checkpoint is a
// contract between builds, not a best-effort hint. Version 2 stores one
// scale factor per fluid link where version 1 stored a list of nested
// amplification factors.
const FormatVersion uint16 = 2

// Encode serializes the snapshot.
func (s *Snapshot) Encode() []byte {
	w := writer{buf: make([]byte, 0, 64+8*len(s.Assign)+8*len(s.Mass))}
	w.buf = append(w.buf, magic[:]...)
	w.u16(FormatVersion)
	w.u8(uint8(s.Kind))
	w.i64(s.Round)
	w.i64(s.QuietStreak)
	switch s.Kind {
	case Exact:
		w.i64(s.Moves)
		w.f64(s.Phi)
		w.i32s(s.Assign)
		w.u64(uint64(len(s.Strategies)))
		for _, set := range s.Strategies {
			w.i32s(set)
		}
		w.bools(s.Retired)
	case Fluid:
		w.f64(s.Phi)
		w.f64(s.MoveMass)
		w.f64s(s.Mass)
		w.u64(uint64(len(s.Wraps)))
		for _, wrap := range s.Wraps {
			w.f64(wrap.Pop)
			w.f64(wrap.Scale)
		}
	}
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// Decode parses and validates a snapshot: magic, format version, CRC, and
// per-field bounds.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+2+4 {
		return nil, fmt.Errorf("%w: snapshot truncated (%d bytes)", ErrInvalid, len(data))
	}
	if string(data[:4]) != string(magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrInvalid, data[:4])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: CRC mismatch (file %08x, computed %08x) — snapshot corrupt or truncated", ErrInvalid, sum, got)
	}
	r := reader{buf: body[4:]}
	if v := r.u16(); v != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d (this build reads %d)", ErrInvalid, v, FormatVersion)
	}
	s := &Snapshot{Kind: Kind(r.u8())}
	s.Round = r.i64()
	s.QuietStreak = r.i64()
	switch s.Kind {
	case Exact:
		s.Moves = r.i64()
		s.Phi = r.f64()
		s.Assign = r.i32s()
		n := r.count(4) // each strategy is at least a count
		for i := uint64(0); i < n && r.err == nil; i++ {
			s.Strategies = append(s.Strategies, r.i32s())
		}
		s.Retired = r.bools()
	case Fluid:
		s.Phi = r.f64()
		s.MoveMass = r.f64()
		s.Mass = r.f64s()
		n := r.count(16) // each wrap is pop + scale
		for i := uint64(0); i < n && r.err == nil; i++ {
			s.Wraps = append(s.Wraps, fluid.LinkWrap{Pop: r.f64(), Scale: r.f64()})
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrInvalid, uint8(s.Kind))
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrInvalid, len(r.buf))
	}
	if s.Round < 0 || s.QuietStreak < 0 || s.Moves < 0 {
		return nil, fmt.Errorf("%w: negative counters (round %d, streak %d, moves %d)", ErrInvalid, s.Round, s.QuietStreak, s.Moves)
	}
	return s, nil
}

// WriteBytes atomically replaces the file at path: data is written to a
// temporary file in the target directory, synced to stable storage, and
// renamed over the destination, so a crash mid-write leaves either the old
// file or the new one — never a torn file. Every durable file goes through
// it: the progress manifest that holds the binary snapshots, and the
// daemon's job, spec and result files. The CRC inside each snapshot
// catches the failure modes atomic replacement cannot (partial sector
// writes) at read time.
func WriteBytes(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", werr)
	}
	return nil
}

// writer appends little-endian fields to a growing buffer.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)    { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16)  { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) i32s(s []int32) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.u32(uint32(v))
	}
}

func (w *writer) f64s(s []float64) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.f64(v)
	}
}

func (w *writer) bools(s []bool) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		if v {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
}

// reader consumes little-endian fields, latching the first error; all
// reads after an error return zero values, so decode loops need only one
// final check.
type reader struct {
	buf []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("%w: snapshot truncated (need %d bytes, have %d)", ErrInvalid, n, len(r.buf))
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) f64() float64 {
	v := math.Float64frombits(r.u64())
	if math.IsNaN(v) && r.err == nil {
		r.err = fmt.Errorf("%w: snapshot holds a NaN float", ErrInvalid)
	}
	return v
}

// count reads a length prefix and validates it against the remaining
// buffer, assuming each element occupies at least minElem bytes — the
// guard that keeps a corrupt count from over-allocating.
func (r *reader) count(minElem int) uint64 {
	n := r.u64()
	if r.err == nil && n > uint64(len(r.buf))/uint64(minElem) {
		r.err = fmt.Errorf("%w: count %d exceeds remaining payload (%d bytes)", ErrInvalid, n, len(r.buf))
		return 0
	}
	return n
}

func (r *reader) i32s() []int32 {
	n := r.count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		b := r.take(4)
		if b == nil {
			return nil
		}
		out[i] = int32(binary.LittleEndian.Uint32(b))
	}
	return out
}

func (r *reader) f64s() []float64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *reader) bools() []bool {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.u8() != 0
		if r.err != nil {
			return nil
		}
	}
	return out
}

package checkpoint

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"congame/internal/fluid"
)

// v1FluidBody is a fluid snapshot body (no CRC) in format version 1,
// which stored each link's nested amplification factors as a list.
func v1FluidBody() []byte {
	w := writer{buf: append([]byte(nil), magic[:]...)}
	w.u16(1)
	w.u8(uint8(Fluid))
	w.i64(42) // round
	w.i64(3)  // quiet streak
	w.f64(1.25)
	w.f64(1e-7)
	w.f64s([]float64{0.5, 0.25, 0.25})
	w.u64(3)
	for _, amps := range [][]float64{nil, {0.8, 1.5}, nil} {
		w.f64(400)
		w.f64s(amps)
	}
	return w.buf
}

// TestDecodeRejectsFormatV1: a version-1 snapshot, such as an older build
// left in a manifest, fails to decode, so scenario's resume drops it and
// re-runs its replication.
func TestDecodeRejectsFormatV1(t *testing.T) {
	_, err := Decode(reseal(v1FluidBody()))
	if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("decode of a v1 snapshot: err = %v, want a format-version ErrInvalid", err)
	}
}

// FuzzDecode feeds arbitrary snapshot bodies to Decode. The target
// appends a valid CRC-32 to each body, so mutations reach the field
// decoders instead of stopping at the checksum. Decode must never panic,
// must reject every format version but this build's, and an accepted
// snapshot must re-encode to bytes that decode to an equal snapshot.
func FuzzDecode(f *testing.F) {
	for _, s := range []*Snapshot{
		{Kind: Exact, Round: 5, QuietStreak: 1, Moves: 17, Phi: 2.5, Assign: []int32{0, 1, 2}, Strategies: [][]int32{{0}, {1, 2}, {2}}, Retired: []bool{false, true, false}},
		{Kind: Fluid, Round: 42, QuietStreak: 3, Phi: 1.25, MoveMass: 1e-7, Mass: []float64{0.5, 0.25, 0.25}, Wraps: []fluid.LinkWrap{{Pop: 400}, {Pop: 400, Scale: 1.2}, {Pop: 400}}},
	} {
		b := s.Encode()
		f.Add(b[:len(b)-4])
	}
	f.Add(v1FluidBody())
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := Decode(reseal(append([]byte(nil), body...)))
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Decode error %q does not wrap ErrInvalid", err)
			}
			return
		}
		if v := binary.LittleEndian.Uint16(body[4:6]); v != FormatVersion {
			t.Fatalf("Decode accepted format version %d", v)
		}
		again, err := Decode(s.Encode())
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("re-encoded snapshot decodes differently:\n got %+v\nwant %+v", again, s)
		}
	})
}

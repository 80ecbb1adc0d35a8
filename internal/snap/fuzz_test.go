package snap

import (
	"bytes"
	"testing"
)

// FuzzSnapshotDecode feeds Decode arbitrary bytes. The invariants: no
// panic, no unbounded allocation (every count is validated against the
// remaining input before make), and any successfully decoded snapshot
// re-encodes canonically — Encode(Decode(x)) must itself decode.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ACESNAP2"))
	f.Add([]byte("ACESNAP2META\x00\x00\x00\x00\x00\x00\x00\x00"))
	for _, seed := range []int64{1, 23} {
		data, err := Encode(buildSnapshot(f, seed, 4))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// A few pre-damaged variants steer the fuzzer at the framing.
		f.Add(data[:len(data)-13])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 1
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		out, err := Encode(s)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		s2, err := Decode(out)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		out2, err := Encode(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

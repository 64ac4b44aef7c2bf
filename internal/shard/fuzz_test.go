package shard

import (
	"bytes"
	"testing"
)

// The shard wire decoders read bytes off the network. Each fuzz target
// starts from TestWireRoundTrip's frames and checks that a decode never
// panics and that an accepted frame re-marshals to exactly its own bytes,
// so decoding and encoding agree on every field. Every input is also tried
// with its trailing checksum recomputed, so mutations reach the body
// parser instead of stopping at the CRC.

// fuzzFrame runs check on raw and on raw with a valid checksum.
func fuzzFrame[T interface{ Marshal() []byte }](t *testing.T, raw []byte, decode func([]byte) (T, error)) {
	frames := [][]byte{raw}
	if len(raw) >= 4 {
		frames = append(frames, appendCRC(bytes.Clone(raw[:len(raw)-4])))
	}
	for _, frame := range frames {
		r, err := decode(frame)
		if err != nil {
			continue
		}
		if again := r.Marshal(); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame re-marshals differently:\n in %x\nout %x", frame, again)
		}
	}
}

func FuzzUnmarshalSampleRequest(f *testing.F) {
	for _, r := range wireSampleRequests {
		f.Add(r.Marshal())
	}
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzFrame(t, raw, UnmarshalSampleRequest) })
}

func FuzzUnmarshalSampleResponse(f *testing.F) {
	for _, r := range wireSampleResponses {
		f.Add(r.Marshal())
	}
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzFrame(t, raw, UnmarshalSampleResponse) })
}

func FuzzUnmarshalCellsRequest(f *testing.F) {
	for _, r := range wireCellsRequests {
		f.Add(r.Marshal())
	}
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzFrame(t, raw, UnmarshalCellsRequest) })
}

func FuzzUnmarshalCellsResponse(f *testing.F) {
	for _, r := range wireCellsResponses {
		f.Add(r.Marshal())
	}
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzFrame(t, raw, UnmarshalCellsResponse) })
}

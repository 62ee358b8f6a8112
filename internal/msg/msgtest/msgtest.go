// Package msgtest checks binary codec bindings (msg.Bind) against gob. The
// packages that own bound types call it from their tests: every bound value
// must decode to exactly what a gob round trip of it yields, its typed
// Codec must agree with the untyped Encode and Decode byte for byte, and
// each tag has a golden frame that pins its wire format.
package msgtest

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/msg"
)

// Payload is an unbound type: nested in a bound value it travels as a gob
// stream inside the binary frame.
type Payload struct {
	S string
	N int64
}

func init() { msg.Register(Payload{}) }

// Body returns a seeded value for a nested `any` field, covering each way
// the codec can carry one: nil, raw bytes (empty included), and an unbound
// value nested as gob.
func Body(rng *rand.Rand) any {
	switch rng.IntN(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		b := make([]byte, rng.IntN(80))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	default:
		return Payload{S: String(rng), N: rng.Int64() - rng.Int64()}
	}
}

// String returns a short seeded string, sometimes empty.
func String(rng *rand.Rand) string {
	const alphabet = "abcdefgh.-_0123456789"
	b := make([]byte, rng.IntN(12))
	for i := range b {
		b[i] = alphabet[rng.IntN(len(alphabet))]
	}
	return string(b)
}

// Uint returns a seeded uint64 spread over every uvarint width.
func Uint(rng *rand.Rand) uint64 { return rng.Uint64() >> rng.IntN(64) }

// RoundTrip checks one bound value: Encode gives a binary frame, Decode of
// it equals the gob round trip of v, re-encoding the decoded value gives
// the same bytes, EncodeTransient agrees with Encode, and T's Codec agrees
// with both (see checkCodec). It returns the frame.
func RoundTrip[T any](t testing.TB, v T) []byte {
	t.Helper()
	frame, err := msg.Encode(v)
	if err != nil {
		t.Fatalf("encode %#v: %v", v, err)
	}
	if len(frame) < 2 || frame[0] != 0x00 {
		t.Fatalf("%T is not bound: frame % x", v, frame)
	}
	got, err := msg.Decode(frame)
	if err != nil {
		t.Fatalf("decode %#v from % x: %v", v, frame, err)
	}
	if want := viaGob(t, v); !reflect.DeepEqual(got, want) {
		t.Fatalf("binary round trip of %#v gave %#v, gob gives %#v", v, got, want)
	}
	again, err := msg.Encode(got)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("re-encoding %#v gave % x (%v), want % x", got, again, err, frame)
	}
	transient, release, err := msg.EncodeTransient(v)
	if err != nil || !bytes.Equal(transient, frame) {
		t.Fatalf("EncodeTransient gave % x (%v), Encode % x", transient, err, frame)
	}
	release()
	checkCodec(t, v, frame)
	return frame
}

// checkCodec checks T's Codec against the untyped API on one value and its
// frame: Codec.Encode and Codec.EncodeTransient write the same bytes as
// Encode, Codec.Decode reads what Decode reads, and both reject the frame
// cut short by a byte or followed by one.
func checkCodec[T any](t testing.TB, v T, frame []byte) {
	t.Helper()
	c, ok := msg.CodecOf[T]()
	if !ok {
		t.Fatalf("%T is bound but has no Codec", v)
	}
	if typed, err := c.Encode(v); err != nil || !bytes.Equal(typed, frame) {
		t.Fatalf("Codec.Encode gave % x (%v), Encode % x", typed, err, frame)
	}
	typed, release, err := c.EncodeTransient(v)
	if err != nil || !bytes.Equal(typed, frame) {
		t.Fatalf("Codec.EncodeTransient gave % x (%v), Encode % x", typed, err, frame)
	}
	release()
	got, err := c.Decode(frame)
	if err != nil {
		t.Fatalf("Codec.Decode of % x: %v", frame, err)
	}
	if want, _ := msg.Decode(frame); !reflect.DeepEqual(any(got), want) {
		t.Fatalf("Codec.Decode of % x gave %#v, Decode %#v", frame, got, want)
	}
	for _, bad := range [][]byte{frame[:len(frame)-1], append(bytes.Clone(frame), 0)} {
		_, untypedErr := msg.Decode(bad)
		if _, err := c.Decode(bad); err == nil || untypedErr == nil {
			t.Fatalf("% x accepted: Codec.Decode error %v, Decode error %v", bad, err, untypedErr)
		}
	}
}

// Golden checks that v encodes to the frame written in hex (spaces are
// ignored) and round-trips as RoundTrip requires.
func Golden[T any](t testing.TB, v T, frameHex string) {
	t.Helper()
	want, err := hex.DecodeString(string(bytes.ReplaceAll([]byte(frameHex), []byte(" "), nil)))
	if err != nil {
		t.Fatalf("golden %T: %v", v, err)
	}
	if got := RoundTrip(t, v); !bytes.Equal(got, want) {
		t.Fatalf("%T encodes to\n% x\ngolden frame is\n% x", v, got, want)
	}
}

// viaGob is v after a gob round trip, the reference the binary codec must
// match.
func viaGob(t testing.TB, v any) any {
	t.Helper()
	type envelope struct{ V any }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{V: v}); err != nil {
		t.Fatalf("gob encode %#v: %v", v, err)
	}
	var out envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %#v: %v", v, err)
	}
	return out.V
}

package msg_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/msg"
	"repro/internal/msg/msgtest"
	_ "repro/internal/rchannel" // binds the channel frame FuzzDecode cross-checks
)

// probeFrame is a bound fixture that uses every field kind a Writer offers.
type probeFrame struct {
	Kind byte
	Seq  uint64
	Flag bool
	Name string
	Raw  []byte
	Body any
}

// gobOnly is never bound: it nests as a gob stream and is gob at top level.
type gobOnly struct {
	A int64
	M map[string]uint32
}

// intProbe is a bound fixture for Writer.Int.
type intProbe struct{ X int64 }

const (
	tagProbe      = 0xf0
	tagProbeBatch = 0xf1
	tagIntProbe   = 0xf2
)

func init() {
	msg.Bind(tagProbe, encodeProbe, decodeProbe)
	msg.Bind(tagProbeBatch, func(w *msg.Writer, b []probeFrame) {
		w.Len(len(b))
		for _, f := range b {
			encodeProbe(w, f)
		}
	}, func(r *msg.Reader) []probeFrame {
		n := r.Len()
		if n == 0 {
			return nil
		}
		b := make([]probeFrame, n)
		for i := range b {
			b[i] = decodeProbe(r)
		}
		return b
	})
	msg.Bind(tagIntProbe, func(w *msg.Writer, p intProbe) { w.Int(p.X) },
		func(r *msg.Reader) intProbe { return intProbe{X: r.Int()} })
	msg.Register(gobOnly{})
}

func encodeProbe(w *msg.Writer, f probeFrame) {
	w.Byte(f.Kind)
	w.Uint(f.Seq)
	w.Bool(f.Flag)
	w.Str(f.Name)
	w.Bytes(f.Raw)
	w.Any(f.Body)
}

func decodeProbe(r *msg.Reader) probeFrame {
	return probeFrame{Kind: r.Byte(), Seq: r.Uint(), Flag: r.Bool(), Name: r.Str(), Raw: r.Bytes(), Body: r.Any()}
}

func seededProbe(rng *rand.Rand, depth int) probeFrame {
	f := probeFrame{Kind: byte(rng.Uint32()), Seq: msgtest.Uint(rng), Flag: rng.IntN(2) == 1,
		Name: msgtest.String(rng), Body: msgtest.Body(rng)}
	if rng.IntN(2) == 0 {
		f.Raw = []byte(msgtest.String(rng))
	}
	switch rng.IntN(5) {
	case 0:
		if depth < 4 {
			f.Body = seededProbe(rng, depth+1)
		}
	case 1:
		f.Body = gobOnly{A: rng.Int64(), M: map[string]uint32{msgtest.String(rng): rng.Uint32()}}
	}
	return f
}

// TestBoundDifferential: seeded values of every bound type decode to
// exactly what their gob round trip gives, and re-encode to the same bytes.
func TestBoundDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 500; i++ {
		msgtest.RoundTrip(t, seededProbe(rng, 0))
		batch := make([]probeFrame, rng.IntN(6))
		for j := range batch {
			batch[j] = seededProbe(rng, 2)
		}
		msgtest.RoundTrip(t, batch)
		if b, ok := msgtest.Body(rng).([]byte); ok {
			msgtest.RoundTrip(t, b)
		}
	}
}

// TestGoldenFrames pins the wire format of each tag this package reserves,
// plus a bound struct and a bound slice.
func TestGoldenFrames(t *testing.T) {
	// Top-level []byte: tagBytes, length, bytes.
	msgtest.Golden(t, []byte{0xde, 0xad}, "00 02 02 dead")
	// A bound struct whose `any` is nil (tagNil).
	msgtest.Golden(t, probeFrame{Kind: 7, Seq: 300, Flag: true, Name: "p1", Raw: []byte{1, 2, 3}},
		"00 f0 07 ac02 01 02 7031 03 010203 00")
	// Nested []byte and nested bound value.
	msgtest.Golden(t, probeFrame{Body: []byte{9, 9}}, "00 f0 00 00 00 00 00 02 02 0909")
	msgtest.Golden(t, probeFrame{Body: probeFrame{Seq: 1}}, "00 f0 00 00 00 00 00 f0 00 01 00 00 00 00")
	// A bound slice: length, then the elements.
	msgtest.Golden(t, []probeFrame{{Seq: 1}, {Seq: 2}}, "00 f1 02 00 01 00 00 00 00 00 02 00 00 00 00")

	// tagGob: the nested stream is exactly what Encode produces for the
	// unbound value at top level (gob type ids are per process, so the
	// stream is taken from this process rather than written out).
	inner := gobOnly{A: 5}
	stream, err := msg.Encode(inner)
	if err != nil {
		t.Fatal(err)
	}
	frame := append(mustHex(t, "00 f0 00 00 00 00 00 01"), binary.AppendUvarint(nil, uint64(len(stream)))...)
	frame = append(frame, stream...)
	got := msgtest.RoundTrip(t, probeFrame{Body: inner})
	if !bytes.Equal(got, frame) {
		t.Fatalf("nested gob frame\n% x\nwant\n% x", got, frame)
	}
}

// TestIntZigzag pins Writer.Int's zigzag varint at the edges of int64: small
// magnitudes of either sign stay one byte.
func TestIntZigzag(t *testing.T) {
	msgtest.Golden(t, intProbe{X: 0}, "00 f2 00")
	msgtest.Golden(t, intProbe{X: -1}, "00 f2 01")
	msgtest.Golden(t, intProbe{X: 1}, "00 f2 02")
	msgtest.Golden(t, intProbe{X: -64}, "00 f2 7f")
	msgtest.Golden(t, intProbe{X: 64}, "00 f2 8001")
	msgtest.Golden(t, intProbe{X: math.MaxInt64}, "00 f2 feffffffffffffffff01")
	msgtest.Golden(t, intProbe{X: math.MinInt64}, "00 f2 ffffffffffffffffff01")
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// nested returns a frame of depth probeFrames, each the body of the last.
func nested(depth int) []byte {
	frame := []byte{0x00}
	for i := 0; i < depth; i++ {
		frame = append(frame, tagProbe, 0, 0, 0, 0, 0)
	}
	return append(frame, 0x00)
}

// TestDecodeRejects: malformed binary frames fail cleanly, before any
// allocation sized by the input.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, frame, err string
	}{
		{"unknown tag", "00 ee", "unknown tag"},
		{"unknown nested tag", "00 f0 00 00 00 00 00 ee", "unknown tag"},
		{"nil at top level", "00 00", "top level"},
		{"gob at top level", "00 01 00", "top level"},
		{"mark only", "00", "truncated"},
		{"truncated field", "00 f0 07", "truncated"},
		{"truncated uvarint", "00 f0 07 ac", "truncated"},
		{"string past the end", "00 f0 00 00 00 05 6162", "exceeds"},
		{"huge length", "00 f0 00 00 00 ffffffffffffffff7f", "exceeds"},
		{"huge slice count", "00 f1 ffffffff0f", "exceeds"},
		{"gob blob past the end", "00 f0 00 00 00 00 00 01 40 ff", "exceeds"},
		{"overlong uvarint", "00 f0 00 8000 00 00 00 00", "non-canonical"},
		{"bool out of range", "00 f0 00 00 02 00 00 00", "non-canonical"},
		{"trailing bytes", "00 f0 00 00 00 00 00 00 ff", "trailing"},
		{"nested gob garbage", "00 f0 00 00 00 00 00 01 02 ffff", "msg decode"},
	}
	for _, c := range cases {
		if _, err := msg.Decode(mustHex(t, c.frame)); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: Decode(%s) = %v, want error containing %q", c.name, c.frame, err, c.err)
		}
	}
	if _, err := msg.Decode(nested(msg.MaxDepth)); err != nil {
		t.Fatalf("nesting at the limit: %v", err)
	}
	if _, err := msg.Decode(nested(msg.MaxDepth + 1)); err == nil || !strings.Contains(err.Error(), "too deep") {
		t.Fatalf("nesting past the limit: %v", err)
	}
	deep := any(nil)
	for i := 0; i <= msg.MaxDepth; i++ {
		deep = probeFrame{Body: deep}
	}
	if _, err := msg.Encode(deep); err == nil {
		t.Fatal("encoded a frame nested past the limit")
	}
}

// TestBoundConcurrent runs binary round trips from several goroutines: the
// pooled writers and readers and the intern table (which grows here) are
// shared.
func TestBoundConcurrent(t *testing.T) {
	const workers, per = 8, 300
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				in := probeFrame{Seq: uint64(w*per + i), Name: fmt.Sprintf("n%d-%d", w, i%40), Body: []byte{byte(i)}}
				frame, err := msg.Encode(in)
				if err != nil {
					errs <- err
					return
				}
				out, err := msg.Decode(frame)
				if err != nil {
					errs <- err
					return
				}
				if got := out.(probeFrame); got.Seq != in.Seq || got.Name != in.Name {
					errs <- fmt.Errorf("worker %d: sent %+v, got %+v", w, in, got)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestInternKeepsWorkingSet: once a process has met far more distinct
// strings than the intern table holds, a string that keeps recurring (a
// client's session ID) is still served from the table, so decoding it
// allocates no string.
func TestInternKeepsWorkingSet(t *testing.T) {
	decode := func(name string) probeFrame {
		frame, err := msg.Encode(probeFrame{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		v, err := msg.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return v.(probeFrame)
	}
	for i := 0; i < 4096; i++ {
		decode(fmt.Sprintf("cold-session-%d", i))
	}
	const session = "c7f3a9e2-recurring"
	frame, err := msg.Encode(probeFrame{Name: session})
	if err != nil {
		t.Fatal(err)
	}
	first := decode(session)
	for i := 0; i < 100; i++ {
		// Cold strings keep arriving between the recurring one's frames.
		decode(fmt.Sprintf("late-cold-%d", i))
		if got := decode(session); unsafe.StringData(got.Name) != unsafe.StringData(first.Name) {
			t.Fatalf("decode %d of a recurring session ID allocated a new string", i)
		}
	}
	box := testing.AllocsPerRun(100, func() {
		if _, err := msg.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if box > 1 {
		t.Fatalf("decoding a frame whose only string recurs costs %.1f allocs, want 1 (the boxed value)", box)
	}
}

// TestGobNeverStartsWithZero backs Decode's dispatch rule: gob writes every
// message behind its non-zero length, so no gob stream can be taken for a
// binary frame.
func TestGobNeverStartsWithZero(t *testing.T) {
	check := func(v any) bool {
		out, err := msg.Encode(v)
		return err == nil && len(out) > 0 && out[0] != 0x00
	}
	for _, v := range []any{nil, 0, "", false, gobOnly{}, msgtest.Payload{}, []string{}} {
		if !check(v) {
			t.Errorf("Encode(%#v) starts with 0x00 or fails", v)
		}
	}
	prop := func(a int64, s string, m map[string]uint32) bool {
		return check(gobOnly{A: a, M: m}) && check(msgtest.Payload{S: s, N: a})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBindRejectsMisuse: reserved and reused tags are wiring bugs.
func TestBindRejectsMisuse(t *testing.T) {
	type spare struct{ X uint64 }
	for name, bind := range map[string]func(){
		"reserved tag": func() {
			msg.Bind(0x01, func(*msg.Writer, spare) {}, func(*msg.Reader) spare { return spare{} })
		},
		"tag bound twice": func() {
			msg.Bind(tagProbe, func(*msg.Writer, spare) {}, func(*msg.Reader) spare { return spare{} })
		},
		"type bound twice": func() { msg.Bind(0xfe, encodeProbe, decodeProbe) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Bind did not panic", name)
				}
			}()
			bind()
		}()
	}
}

// TestCodecRejects: a typed Codec accepts only a binary frame of its own
// type, whole: a frame of another bound type, a gob stream (even of a value
// of its type), a truncated frame and one with trailing bytes are errors.
func TestCodecRejects(t *testing.T) {
	c, ok := msg.CodecOf[probeFrame]()
	if !ok {
		t.Fatal("probeFrame has no Codec")
	}
	if _, ok := msg.CodecOf[gobOnly](); ok {
		t.Fatal("an unbound type has a Codec")
	}
	frame, err := c.Encode(probeFrame{Seq: 300, Name: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	other, _ := msg.Encode(intProbe{X: 1})
	gobbed := gobStream(t, probeFrame{Seq: 300, Name: "p1"})
	for name, data := range map[string][]byte{
		"wrong tag":  other,
		"gob frame":  gobbed,
		"empty":      nil,
		"mark only":  frame[:1],
		"truncated":  frame[:len(frame)-1],
		"trailing":   append(bytes.Clone(frame), 0),
		"nested tag": {0x00, tagProbe, 0, 0, 0, 0, 0, 0xee},
	} {
		if v, err := c.Decode(data); err == nil {
			t.Errorf("%s: Codec.Decode(% x) accepted %#v", name, data, v)
		}
	}
	if v, err := c.Decode(frame); err != nil || v.Seq != 300 || v.Name != "p1" {
		t.Fatalf("Codec.Decode(% x) = %#v, %v", frame, v, err)
	}
}

// gobStream is v as one gob envelope, the form Decode reads for a frame
// that does not start with the binary mark.
func gobStream(t *testing.T, v any) []byte {
	t.Helper()
	type envelope struct{ V any }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{V: v}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireTag is the reliable channel's frame tag; its Codec carries every
// packet of the stack, so FuzzDecode cross-checks it on every input.
const wireTag = 0x10

// FuzzDecode: Decode never panics, and every binary frame it accepts
// re-encodes to the same bytes. Gob's own bytes are not canonical, so a frame
// that nests a gob stream may re-encode differently; it must then decode to
// the same value and re-encode to itself. On every input, the channel
// frame's typed Codec and the Codec of the tag the frame names accept
// exactly what Decode accepts as their type, and read the same value.
func FuzzDecode(f *testing.F) {
	for _, v := range []any{
		[]byte{0xde, 0xad},
		probeFrame{Kind: 7, Seq: 300, Flag: true, Name: "p1", Raw: []byte{1, 2, 3}},
		probeFrame{Body: probeFrame{Body: []byte{9}}},
		[]probeFrame{{Seq: 1}, {Name: "x", Body: gobOnly{A: 1}}},
		gobOnly{A: -3, M: map[string]uint32{"k": 2}},
	} {
		frame, err := msg.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add(nested(msg.MaxDepth + 1))
	// A channel data frame carrying a nested probe frame.
	f.Add([]byte{0x00, wireTag, 0x01, 0x05, 0x04, 0x02, 0x63, 0x73, tagIntProbe, 0x03, 0x00, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := msg.Decode(data)
		crossCheck(t, wireTag, data, v, err)
		if len(data) > 1 && data[0] == 0x00 && data[1] != wireTag && msg.IsBound(data[1]) {
			crossCheck(t, data[1], data, v, err)
		}
		if err != nil || data[0] != 0x00 {
			return
		}
		out, err := msg.Encode(v)
		if err != nil {
			t.Fatalf("accepted % x but cannot re-encode %#v: %v", data, v, err)
		}
		if bytes.Equal(out, data) {
			return
		}
		v2, err := msg.Decode(out)
		if err != nil {
			t.Fatalf("re-encoded % x does not decode: %v", out, err)
		}
		if !reflect.DeepEqual(v2, v) {
			t.Fatalf("accepted % x as %#v; its re-encoding % x reads %#v", data, v, out, v2)
		}
		if again, _ := msg.Encode(v2); !bytes.Equal(again, out) {
			t.Fatalf("accepted % x, re-encodes to % x, then to % x", data, out, again)
		}
	})
}

// crossCheck compares the Codec bound to tag with Decode's verdict (v, err)
// on data: the Codec accepts data exactly when Decode accepts it as a binary
// frame of that tag, and then reads the same value.
func crossCheck(t *testing.T, tag byte, data []byte, v any, err error) {
	t.Helper()
	typed, typedErr := msg.DecodeByTag(tag, data)
	own := err == nil && len(data) > 1 && data[0] == 0x00 && data[1] == tag
	switch {
	case own && typedErr != nil:
		t.Fatalf("Decode accepted % x as %#v; the %#x Codec rejects it: %v", data, v, tag, typedErr)
	case !own && typedErr == nil:
		t.Fatalf("the %#x Codec accepted % x as %#v; Decode gives %#v, %v", tag, data, typed, v, err)
	case own && !reflect.DeepEqual(typed, v):
		t.Fatalf("% x: the %#x Codec reads %#v, Decode %#v", data, tag, typed, v)
	}
}

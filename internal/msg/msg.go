// Package msg provides the wire codec shared by every protocol layer.
//
// Encoding through a real codec (rather than passing pointers through the
// in-memory transport) guarantees that no two processes ever alias mutable
// state, exactly as if they were on different machines, and lets the same
// message types travel over the TCP transport unchanged.
//
// Two encodings share one API, chosen by type and never by configuration:
//
//   - Bound types use a hand-written binary encoding: the protocol messages
//     of the group-communication core, and every payload passive
//     replication hands to generic broadcast (the update batch, the
//     session and leader leases, the read barrier and the primary change),
//     so the ordered path carries one encoding end to end. Their owner
//     package calls Bind from its init with a one-byte tag and an
//     encode/decode function pair. A frame is [0x00][tag][body]. Fields
//     are uvarints, zigzag varints, single bytes, length-prefixed strings
//     and byte slices, and nested `any` values, which recurse through the
//     same tag dispatch: tagNil for a nil interface, a bound tag for a
//     bound value, tagBytes for a []byte, and tagGob followed by a
//     length-prefixed gob stream for any other registered value.
//   - Every other registered type is a gob stream of an envelope, byte for
//     byte what this package produced before binary bindings existed, so
//     stored data needs no migration: the service frames, replication's
//     WAL records, snapshots and state-transfer frames, and application
//     values. A WAL record that holds a bound payload stays gob throughout,
//     since gob encodes the nested value itself.
//
// Decode tells the two apart by the first byte: gob never writes an empty
// message, so a gob stream never starts with 0x00. Decode copies everything
// out of its input (frames are recycled through transport.PutFrame right
// after), bounds-checks every length against the bytes that remain before
// allocating, and rejects unknown tags, truncated or trailing bytes,
// non-canonical integers and nesting deeper than maxDepth. Strings in bound
// types (process IDs, protocol and class names) are interned, so the
// steady state decodes them without allocating.
//
// The encode path is pooled: every Encode borrows a scratch writer from a
// sync.Pool and returns an exactly-sized copy the caller owns. Callers that
// consume a frame synchronously (transports copy on Send) can avoid even
// that copy with EncodeTransient. See BenchmarkMsgCodec and
// BenchmarkMsgDecode.
//
// Bind returns a typed Codec[T] for the bound type. Its Encode,
// EncodeTransient and Decode write and accept exactly the frames the
// untyped functions do, with the same checks, but take and return a T:
// the hot path neither boxes a frame into an interface value nor looks its
// binding up by dynamic type, and Codec.Decode rejects a frame of any other
// type, a gob stream included. The reliable channel sends and receives
// every packet through its frame's Codec.
package msg

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// envelope is the concrete top-level type handed to gob; the payload itself
// is an interface value whose dynamic type must have been registered.
type envelope struct {
	V any
}

// binaryMark opens every binary frame; no gob stream starts with it.
const binaryMark = 0x00

// Tags reserved by this package. Owner packages bind tags from 0x10 up.
const (
	tagNil   = 0x00 // nested nil interface
	tagGob   = 0x01 // nested unbound value: uvarint length, then a gob stream
	tagBytes = 0x02 // []byte: uvarint length, then the bytes
)

// maxDepth bounds how deeply `any` values may nest inside one binary frame.
const maxDepth = 16

var (
	errTruncated    = errors.New("truncated frame")
	errOversize     = errors.New("length exceeds frame")
	errNonCanonical = errors.New("non-canonical encoding")
	errDepth        = errors.New("nesting too deep")
	errTrailing     = errors.New("trailing bytes")
	errNotBinary    = errors.New("not a binary frame")
)

var (
	registryMu sync.Mutex
	registry   = make(map[reflect.Type]bool)
)

// Register makes a concrete message type known to the codec. It must be
// called (typically from the defining package's registration hook) before a
// value of that type is encoded or decoded.
//
// Register is idempotent: registering the same concrete type any number of
// times — e.g. from several init paths of a library user, or from tests that
// re-run registration helpers — is a no-op after the first call.
func Register(v any) {
	t := reflect.TypeOf(v)
	registryMu.Lock()
	defer registryMu.Unlock()
	if registry[t] {
		return
	}
	registry[t] = true
	gob.Register(v)
}

// binding is one bound type's binary encoding.
type binding struct {
	tag   byte
	enc   func(*Writer, any)
	dec   func(*Reader) any
	codec anyCodec // the type's Codec[T]
}

// anyCodec is a Codec[T] of some T: CodecOf asserts it back to its type,
// and tests run it by tag.
type anyCodec interface {
	decodeAny(data []byte) (any, error)
}

// table is the immutable set of bindings; Bind replaces it wholesale, so the
// hot path reads it without a lock.
type table struct {
	byType map[reflect.Type]*binding
	byTag  [256]*binding
}

var bindings atomic.Pointer[table]

func init() {
	bindings.Store(&table{byType: map[reflect.Type]*binding{}})
	Bind(tagBytes, func(w *Writer, b []byte) { w.Bytes(b) }, func(r *Reader) []byte { return r.Bytes() })
}

// Bind registers T (as Register does) and gives it the binary encoding enc
// and dec under tag. Owner packages call it from init, once per type; a
// reserved, reused or re-bound tag panics. dec must read exactly what enc
// wrote, in the same order, and need not check errors: the Reader's are
// sticky and Decode reports the first. The returned Codec encodes and
// decodes T without boxing it.
func Bind[T any](tag byte, enc func(*Writer, T), dec func(*Reader) T) Codec[T] {
	var zero T
	Register(zero)
	typ := reflect.TypeOf(zero)
	registryMu.Lock()
	defer registryMu.Unlock()
	old := bindings.Load()
	switch {
	case tag <= tagGob:
		panic(fmt.Sprintf("msg: tag %#x is reserved", tag))
	case old.byTag[tag] != nil:
		panic(fmt.Sprintf("msg: tag %#x bound twice", tag))
	case old.byType[typ] != nil:
		panic(fmt.Sprintf("msg: %v bound twice", typ))
	}
	c := Codec[T]{tag: tag, enc: enc, dec: dec}
	b := &binding{
		tag:   tag,
		enc:   func(w *Writer, v any) { enc(w, v.(T)) },
		dec:   func(r *Reader) any { return dec(r) },
		codec: c,
	}
	next := &table{byType: make(map[reflect.Type]*binding, len(old.byType)+1), byTag: old.byTag}
	for t, ob := range old.byType {
		next.byType[t] = ob
	}
	next.byType[typ] = b
	next.byTag[tag] = b
	bindings.Store(next)
	return c
}

// CodecOf returns T's Codec, if T is bound.
func CodecOf[T any]() (Codec[T], bool) {
	b := bindings.Load().byType[reflect.TypeFor[T]()]
	if b == nil {
		return Codec[T]{}, false
	}
	return b.codec.(Codec[T]), true
}

// Codec is one bound type's binary encoding, typed. Its methods write and
// accept exactly the frames Encode, EncodeTransient and Decode do for a T,
// with the same checks, but take and return a T rather than an interface
// value: no box per frame, no lookup by dynamic type, and Decode rejects a
// frame of any other type (a gob stream included) as an error.
type Codec[T any] struct {
	tag byte
	enc func(*Writer, T)
	dec func(*Reader) T
}

// encode serialises v into a pooled writer; the caller must release it.
func (c Codec[T]) encode(v T) (*Writer, error) {
	w := writerPool.Get().(*Writer)
	// The frame's own value is at depth 1, where Writer.bound puts it.
	w.buf, w.err, w.depth = w.buf[:0], nil, 1
	w.Byte(binaryMark)
	w.Byte(c.tag)
	c.enc(w, v)
	if w.err != nil {
		err := w.err
		writerPool.Put(w)
		return nil, fmt.Errorf("msg encode %T: %w", v, err)
	}
	return w, nil
}

// Encode is Encode for a T.
func (c Codec[T]) Encode(v T) ([]byte, error) {
	w, err := c.encode(v)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	writerPool.Put(w)
	return out, nil
}

// EncodeTransient is EncodeTransient for a T.
func (c Codec[T]) EncodeTransient(v T) ([]byte, func(), error) {
	w, err := c.encode(v)
	if err != nil {
		return nil, nil, err
	}
	return w.buf, w.release, nil
}

// Decode is Decode for a frame that must hold a T.
func (c Codec[T]) Decode(data []byte) (T, error) {
	var v T
	if len(data) == 0 || data[0] != binaryMark {
		return v, fmt.Errorf("msg decode: %w", errNotBinary)
	}
	r := readerPool.Get().(*Reader)
	*r = Reader{data: data, off: 1, depth: 1}
	if tag := r.Byte(); r.err == nil && tag != c.tag {
		r.fail(fmt.Errorf("tag %#x, want %#x", tag, c.tag))
	} else if r.err == nil {
		v = c.dec(r)
	}
	if r.err == nil && r.off != len(r.data) {
		r.fail(errTrailing)
	}
	err := r.err
	*r = Reader{} // drop the data reference before pooling
	readerPool.Put(r)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("msg decode: %w", err)
	}
	return v, nil
}

// decodeAny is Decode with the value boxed.
func (c Codec[T]) decodeAny(data []byte) (any, error) {
	v, err := c.Decode(data)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func lookup(v any) *binding { return bindings.Load().byType[reflect.TypeOf(v)] }

// Writer appends one binary frame. Its methods are what a Bind encoder
// calls, field by field.
type Writer struct {
	buf     []byte
	err     error
	depth   int
	release func() // returns this writer to writerPool (EncodeTransient)
}

var writerPool sync.Pool

func init() {
	writerPool.New = func() any {
		w := new(Writer)
		w.release = func() { writerPool.Put(w) }
		return w
	}
}

// Byte writes one byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool writes a bool as one byte, 0 or 1.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uint writes x as a uvarint.
func (w *Writer) Uint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }

// Int writes x zigzag-encoded as a uvarint, so small negative values stay
// short.
func (w *Writer) Int(x int64) { w.Uint(uint64(x<<1) ^ uint64(x>>63)) }

// Len writes a slice length (the count a decoder reads with Reader.Len).
func (w *Writer) Len(n int) { w.Uint(uint64(n)) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Len(len(s))
	w.buf = append(w.buf, s...)
}

// Bytes writes a length-prefixed byte slice; nil and empty are the same.
func (w *Writer) Bytes(b []byte) {
	w.Len(len(b))
	w.buf = append(w.buf, b...)
}

// Any writes a nested interface value: nil, a bound value by its tag, or
// any other registered value as one length-prefixed gob stream.
func (w *Writer) Any(v any) {
	if v == nil {
		w.Byte(tagNil)
		return
	}
	if b := lookup(v); b != nil {
		w.bound(b, v)
		return
	}
	w.Byte(tagGob)
	start := len(w.buf)
	w.gob(v)
	// Prefix the stream with its length: shift it right by the prefix size.
	var hdr [binary.MaxVarintLen64]byte
	n := len(w.buf) - start
	k := binary.PutUvarint(hdr[:], uint64(n))
	w.buf = append(w.buf, hdr[:k]...)
	copy(w.buf[start+k:], w.buf[start:start+n])
	copy(w.buf[start:], hdr[:k])
}

// bound writes v's tag and body.
func (w *Writer) bound(b *binding, v any) {
	if w.depth++; w.depth > maxDepth {
		w.fail(errDepth)
		return
	}
	w.Byte(b.tag)
	b.enc(w, v)
	w.depth--
}

// gob appends v's gob stream: exactly the bytes Encode produces for an
// unbound type.
func (w *Writer) gob(v any) {
	if err := gob.NewEncoder((*gobSink)(w)).Encode(envelope{V: v}); err != nil {
		w.fail(err)
	}
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// gobSink lets gob write into a Writer without making Write part of the
// Writer's API.
type gobSink Writer

func (s *gobSink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// encode serialises v into a pooled writer; the caller must release it.
func encode(v any) (*Writer, error) {
	w := writerPool.Get().(*Writer)
	w.buf, w.err, w.depth = w.buf[:0], nil, 0
	if b := lookup(v); b != nil {
		w.Byte(binaryMark)
		w.bound(b, v)
	} else {
		w.gob(v)
	}
	if w.err != nil {
		err := w.err
		writerPool.Put(w)
		return nil, fmt.Errorf("msg encode %T: %w", v, err)
	}
	return w, nil
}

// Encode serialises v. The dynamic type of v must be registered. The
// returned slice is owned by the caller (it is safe to retain, e.g. in a
// retransmission buffer).
func Encode(v any) ([]byte, error) {
	w, err := encode(v)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	writerPool.Put(w)
	return out, nil
}

// EncodeTransient serialises v into a pooled buffer and returns a view of
// it plus a release function. The slice is valid only until release is
// called; it must NOT be retained or sent anywhere that keeps a reference
// past the call (all transports copy on Send, so
//
//	frame, release, err := msg.EncodeTransient(v)
//	tr.Send(to, frame)
//	release()
//
// is the alloc-free pattern for fire-and-forget frames such as acks,
// heartbeat datagrams and loopback deliveries).
func EncodeTransient(v any) ([]byte, func(), error) {
	w, err := encode(v)
	if err != nil {
		return nil, nil, err
	}
	return w.buf, w.release, nil
}

// Reader consumes one binary frame. Its methods are what a Bind decoder
// calls, field by field. Errors are sticky: after the first, every read
// returns a zero value and Decode reports that first error.
type Reader struct {
	data  []byte
	off   int
	err   error
	depth int
}

var readerPool = sync.Pool{New: func() any { return new(Reader) }}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.data)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.data) {
		r.fail(errTruncated)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// Bool reads a bool; any byte but 0 or 1 is an error.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.fail(errNonCanonical)
	}
	return b == 1
}

// Uint reads a uvarint, rejecting overlong encodings.
func (r *Reader) Uint() uint64 {
	x, n := binary.Uvarint(r.data[r.off:])
	switch {
	case n == 0:
		r.fail(errTruncated)
		return 0
	case n < 0 || (n > 1 && r.data[r.off+n-1] == 0):
		r.fail(errNonCanonical)
		return 0
	}
	r.off += n
	return x
}

// Int reads a zigzag-encoded integer written by Writer.Int.
func (r *Reader) Int() int64 {
	u := r.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Len reads a slice length written by Writer.Len. Every element takes at
// least one byte, so a length beyond the bytes that remain is rejected
// before the caller allocates for it.
func (r *Reader) Len() int {
	n := r.Uint()
	if n > uint64(len(r.data)-r.off) {
		r.fail(errOversize)
		return 0
	}
	return int(n)
}

// span reads a length prefix and returns the bytes it covers (a view into
// the frame).
func (r *Reader) span() []byte {
	n := r.Len()
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return intern(r.span()) }

// Bytes reads a length-prefixed byte slice into a fresh copy; empty reads
// as nil, as it does through gob.
func (r *Reader) Bytes() []byte {
	b := r.span()
	if len(b) == 0 {
		return nil
	}
	return bytes.Clone(b)
}

// Any reads a nested interface value written by Writer.Any.
func (r *Reader) Any() any {
	switch tag := r.Byte(); {
	case r.err != nil:
		return nil
	case tag == tagNil:
		return nil
	case tag == tagGob:
		blob := r.span()
		if r.err != nil {
			return nil
		}
		v, err := decodeGob(blob, true)
		if err != nil {
			r.fail(err)
			return nil
		}
		return v
	default:
		return r.bound(tag)
	}
}

// bound decodes a value of the bound type tag names.
func (r *Reader) bound(tag byte) any {
	b := bindings.Load().byTag[tag]
	if b == nil {
		r.fail(fmt.Errorf("unknown tag %#x", tag))
		return nil
	}
	if r.depth++; r.depth > maxDepth {
		r.fail(errDepth)
		return nil
	}
	v := b.dec(r)
	r.depth--
	return v
}

// Interning: the strings of bound types repeat in every frame (process IDs,
// protocol and class names, client session IDs), so short ones are served
// from a fixed table: a set-associative cache indexed by an FNV-1a hash of
// the bytes. A miss puts the new string in its set's first way and shifts
// the others down, evicting the last. A working set stays resident however
// many other strings the process has met, an insert is O(1), and memory is
// bounded whatever the input. Slots are atomic pointers, so lookups take no
// lock; racing inserts can only evict an entry early, never serve a wrong
// one.
const (
	internSets     = 512
	internWays     = 4
	maxInternedLen = 64
)

var internTable [internSets * internWays]atomic.Pointer[string]

func intern(b []byte) string {
	if len(b) > maxInternedLen {
		return string(b)
	}
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	set := internTable[h%internSets*internWays:][:internWays]
	for i := range set {
		if p := set[i].Load(); p != nil && *p == string(b) {
			return *p
		}
	}
	s := string(b)
	for i := internWays - 1; i > 0; i-- {
		set[i].Store(set[i-1].Load())
	}
	set[0].Store(&s)
	return s
}

// decodeGob decodes one gob-encoded envelope. A nested stream must be
// consumed exactly; a top-level one is read as it always was.
func decodeGob(data []byte, exact bool) (any, error) {
	br := gobReaderPool.Get().(*bytes.Reader)
	br.Reset(data)
	var env envelope
	err := gob.NewDecoder(br).Decode(&env)
	if err == nil && exact && br.Len() != 0 {
		err = errTrailing
	}
	br.Reset(nil) // drop the data reference before pooling
	gobReaderPool.Put(br)
	if err != nil {
		return nil, err
	}
	return env.V, nil
}

// gobReaderPool recycles the bytes.Reader wrapped around each gob decode. A
// gob.Decoder itself cannot be pooled: each gob stream re-sends its type
// definitions, and a Decoder fed two independent streams rejects the
// duplicates.
var gobReaderPool = sync.Pool{New: func() any { return new(bytes.Reader) }}

// Decode deserialises a value previously produced by Encode. Decode copies
// everything out of data: the caller may reuse (or recycle) the buffer as
// soon as Decode returns — see BenchmarkMsgDecode.
func Decode(data []byte) (any, error) {
	if len(data) == 0 || data[0] != binaryMark {
		v, err := decodeGob(data, false)
		if err != nil {
			return nil, fmt.Errorf("msg decode: %w", err)
		}
		return v, nil
	}
	r := readerPool.Get().(*Reader)
	*r = Reader{data: data, off: 1}
	var v any
	// Encode writes unbound and nil values as gob, never as a binary frame.
	if tag := r.Byte(); r.err == nil && tag <= tagGob {
		r.fail(fmt.Errorf("tag %#x at top level", tag))
	} else if r.err == nil {
		v = r.bound(tag)
	}
	if r.err == nil && r.off != len(r.data) {
		r.fail(errTrailing)
	}
	err := r.err
	*r = Reader{} // drop the data reference before pooling
	readerPool.Put(r)
	if err != nil {
		return nil, fmt.Errorf("msg decode: %w", err)
	}
	return v, nil
}

package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// Every operation the benchmark issues is a 64-byte payload
//
//	[4B magic][4B client][8B seq][48B seeded pad]
//
// (the issue's "[8B client][8B seq][pad]" with the client word's high half
// fixed). The magic lets the decorators recover an operation's (client, seq)
// key from an encoded frame whose type is unexported: gob ships a []byte
// verbatim, so the key is found with one bytes.Index instead of reflection.
const (
	payloadLen = 64
	keyLen     = 16
)

var magic = []byte{0xB5, 0xE7, 0xC4, 0x1D}

// opKey names one operation of one load-generator connection.
type opKey struct {
	client uint32
	seq    uint64
}

func putKey(buf []byte, k opKey) {
	copy(buf, magic)
	binary.BigEndian.PutUint32(buf[4:], k.client)
	binary.BigEndian.PutUint64(buf[8:], k.seq)
}

// keyAt decodes the key at the start of b.
func keyAt(b []byte) (opKey, bool) {
	if len(b) < keyLen || !bytes.Equal(b[:4], magic) {
		return opKey{}, false
	}
	return opKey{
		client: binary.BigEndian.Uint32(b[4:]),
		seq:    binary.BigEndian.Uint64(b[8:]),
	}, true
}

// findKey locates the first key embedded anywhere in an encoded frame.
func findKey(frame []byte) (opKey, bool) {
	i := bytes.Index(frame, magic)
	if i < 0 {
		return opKey{}, false
	}
	return keyAt(frame[i:])
}

// newPayload returns a payload whose pad comes from rng; the caller stamps
// the key per operation with putKey.
func newPayload(rng *rand.Rand) []byte {
	buf := make([]byte, payloadLen)
	rng.Read(buf[keyLen:])
	return buf
}

// Package diskformat_test pins the replication layer's on-disk records: a
// WAL record (LogRec carrying a group-commit batch) and a snapshot, as
// written before the binary codec existed, and a WAL record carrying a
// per-operation pUpdate, as written before every write rode group commit.
// All stay gob, so they must decode unchanged and re-encode to the
// identical bytes.
//
// gob numbers the types it sends from a process-wide counter, in the order
// it first meets them. The golden files were written by a fresh process
// that met the record, the snapshot and the pUpdate record in that order,
// so this package holds nothing but this test, which meets them in the
// same order.
package diskformat_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/msg"
	_ "repro/internal/replication" // registers the record types
)

func TestOnDiskFormatUnchanged(t *testing.T) {
	for _, name := range []string{"logrec", "snapshot", "logrec_pupdate"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name+".gob"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		v, err := msg.Decode(golden)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got := fmt.Sprintf("%#v", v); got != strings.TrimSpace(string(want)) {
			t.Fatalf("%s decodes to\n%s\nwant\n%s", name, got, want)
		}
		again, err := msg.Encode(v)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(again, golden) {
			t.Fatalf("%s re-encodes to\n% x\ngolden bytes are\n% x", name, again, golden)
		}
	}
}

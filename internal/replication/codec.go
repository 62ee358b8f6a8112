package replication

import (
	"repro/internal/msg"
	"repro/internal/proc"
)

// Binary bindings of every payload this package hands to generic broadcast,
// so the ordered write path carries one encoding from the update batch down
// to the transport. The rest stays gob: pUpdate (only replayed from old
// records), LogRec and pSnapshot (their on-disk bytes are pinned by the
// diskformat goldens, and gob encodes a bound payload nested in a LogRec
// itself), and the sync frames, whose sState nests []LogRec.

// Tags of the g-broadcast payloads in the binary codec.
const (
	tagUpdateBatch = 0x50 + iota
	tagLeaderLease
	tagLease
	tagBarrier
	tagChange
)

func init() {
	msg.Bind(tagUpdateBatch, encodeUpdateBatch, decodeUpdateBatch)
	msg.Bind(tagLeaderLease, func(w *msg.Writer, l pLeaderLease) {
		w.Uint(l.Epoch)
		w.Str(string(l.Holder))
		w.Int(l.TTLns)
		w.Int(l.TS)
	}, func(r *msg.Reader) pLeaderLease {
		return pLeaderLease{Epoch: r.Uint(), Holder: proc.ID(r.Str()), TTLns: r.Int(), TS: r.Int()}
	})
	msg.Bind(tagLease, func(w *msg.Writer, l pLease) {
		w.Uint(l.Epoch)
		w.Bool(l.Tick)
		w.Len(len(l.Sessions))
		for _, s := range l.Sessions {
			w.Str(s)
		}
	}, func(r *msg.Reader) pLease {
		l := pLease{Epoch: r.Uint(), Tick: r.Bool()}
		if n := r.Len(); n > 0 {
			l.Sessions = make([]string, n)
			for i := range l.Sessions {
				l.Sessions[i] = r.Str()
			}
		}
		return l
	})
	msg.Bind(tagBarrier, func(w *msg.Writer, b pBarrier) {
		w.Uint(b.Epoch)
		w.Str(string(b.Client))
		w.Uint(b.ReqID)
		w.Int(b.TS)
	}, func(r *msg.Reader) pBarrier {
		return pBarrier{Epoch: r.Uint(), Client: proc.ID(r.Str()), ReqID: r.Uint(), TS: r.Int()}
	})
	msg.Bind(tagChange, func(w *msg.Writer, c pChange) { w.Str(string(c.Old)) },
		func(r *msg.Reader) pChange { return pChange{Old: proc.ID(r.Str())} })
}

// encodeUpdateBatch writes a batch with its entries inline.
func encodeUpdateBatch(w *msg.Writer, u pUpdateBatch) {
	w.Uint(u.Epoch)
	w.Str(string(u.Client))
	w.Uint(u.ReqID)
	w.Len(len(u.Entries))
	for _, e := range u.Entries {
		w.Bytes(e.Update)
		w.Bytes(e.Result)
		w.Str(e.Session)
		w.Uint(e.Seq)
		w.Uint(e.Ack)
	}
	w.Int(u.TS)
}

// decodeUpdateBatch reads what encodeUpdateBatch wrote. The entry count is
// checked against the bytes that remain (Reader.Len) before the slice is
// made.
func decodeUpdateBatch(r *msg.Reader) pUpdateBatch {
	u := pUpdateBatch{Epoch: r.Uint(), Client: proc.ID(r.Str()), ReqID: r.Uint()}
	if n := r.Len(); n > 0 {
		u.Entries = make([]pBatchEntry, n)
		for i := range u.Entries {
			e := &u.Entries[i]
			e.Update = r.Bytes()
			e.Result = r.Bytes()
			e.Session = r.Str()
			e.Seq = r.Uint()
			e.Ack = r.Uint()
		}
	}
	u.TS = r.Int()
	return u
}

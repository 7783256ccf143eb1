package memcache

import (
	"bytes"
	"testing"
)

// FuzzServeAutoConn feeds arbitrary bytes to the daemon's connection
// handler — protocol sniffing, then the text or the binary loop — against
// a store of one slab page. Whatever arrives, the handler must return
// without panicking and leave the store within its memory limit and
// consistent with its own counters. The seeds are the transcript table's
// requests plus testdata/fuzz/FuzzServeAutoConn (the two crashers this
// target was written after, over-long lines, binary frames); ordinary
// `go test` replays them all.
func FuzzServeAutoConn(f *testing.F) {
	for _, tc := range transcripts {
		if len(tc.in) < 64<<10 {
			f.Add([]byte(tc.in))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 20
		st := NewStore(limit, func() int64 { return transcriptClock })
		var out bytes.Buffer
		// Any error is an acceptable way to end a connection.
		_ = ServeAutoConn(st, readWriter{bytes.NewReader(data), &out})
		stats := st.Stats()
		if stats.Bytes < 0 || stats.Bytes > limit {
			t.Errorf("store holds %d bytes, limit %d", stats.Bytes, limit)
		}
		if stats.CurrItems != uint64(st.Len()) {
			t.Errorf("curr_items %d, table holds %d", stats.CurrItems, st.Len())
		}
	})
}

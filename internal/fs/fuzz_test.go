package fs

import (
	"bytes"
	"encoding/json"
	"testing"

	"eevfs/internal/metadata"
)

// Fuzzers for the node's persistence decoders: malformed bytes must
// never panic, and anything a decoder accepts must survive an
// encode/decode round trip unchanged — the property a restart relies on
// after a crash leaves an arbitrary file behind. The log framing has its
// own fuzzer in internal/wal; the server's records and checkpoint are
// proto.RepOp / proto.RepSnapshot, fuzzed in internal/proto.

func FuzzDecodeNodeManifest(f *testing.F) {
	seed := nodeManifest{
		Version:  manifestVersion,
		NextDisk: 3,
		Files: []metadata.NodeEntry{
			{ID: 0, Size: 1e6, Disk: 0, Prefetched: true},
			{ID: 1, Size: 5e8, Disk: 1},
		},
		Dirty:  []dirtyEntry{{ID: 1, Size: 5e8}},
		Buffer: []bufferEntry{{ID: 0, Segment: 3, Offset: 1 << 20}, {ID: 1, Segment: 12, Offset: 0}},
	}
	raw, err := json.MarshalIndent(seed, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":99,"files":[{"id":-1}]}`))
	f.Add([]byte(`{"version":2,"files":[{"id":1,"size":-5,"disk":1e9}]}`))
	f.Add([]byte(`{"version":2,"files":[],"dirty":[]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(nil))
	f.Add([]byte(`{"version":2,"files":[{"id":4,"size":9,"disk":0}],"dirty":[{"id":4,"size":9}],"buffer":[{"id":4,"segment":0,"offset":-1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeNodeManifest(data)
		if err != nil {
			return
		}
		reEnc, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatalf("re-encoding accepted manifest: %v", err)
		}
		again, err := decodeNodeManifest(reEnc)
		if err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
		// Compared as encoded: "dirty":[] and an absent key are the same
		// manifest, though one decodes to an empty slice and one to nil.
		if againEnc, _ := json.MarshalIndent(again, "", "  "); !bytes.Equal(reEnc, againEnc) {
			t.Fatalf("round trip changed manifest:\n%s\n%s", reEnc, againEnc)
		}
	})
}

// FuzzDecodeNodeRecord: a log record that passed its checksum is still
// outside input. Arbitrary bytes must never panic, and whatever the
// decoder accepts must be something a node could have written — it
// re-encodes to the same bytes.
func FuzzDecodeNodeRecord(f *testing.F) {
	f.Add(nodeRecord{Entry: metadata.NodeEntry{ID: 7, Size: 4096, Disk: 1, Prefetched: true},
		Present: true, Dirty: true, DirtySize: 4096, NextDisk: 9}.encode())
	f.Add(nodeRecord{Entry: metadata.NodeEntry{ID: 3}, NextDisk: 4}.encode()) // tombstone
	f.Add([]byte(nil))
	f.Add(bytes.Repeat([]byte{0xFF}, 43))
	f.Add(nodeRecord{Entry: metadata.NodeEntry{ID: 5, Size: 16, Disk: 0}, Present: true, Dirty: true, DirtySize: 16,
		NextDisk: 6, Loc: segLoc{Seg: 2, Off: 4096}}.encode()) // a copy in the log
	f.Add(bytes.Repeat([]byte{0xFF}, 59))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeNodeRecord(data)
		if err != nil {
			return
		}
		if r.Entry.ID < 0 || r.NextDisk < 0 || (r.Present && (r.Entry.Size <= 0 || r.Entry.Disk < 0)) || r.badLoc() {
			t.Fatalf("decoder accepted a record no node writes: %+v", r)
		}
		again, err := decodeNodeRecord(r.encode())
		if err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
		if again != r {
			t.Fatalf("round trip changed record:\n%+v\n%+v", r, again)
		}
	})
}

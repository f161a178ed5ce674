package proto

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadFrameID feeds arbitrary bytes to the frame reader: it must
// never panic nor over-allocate, and accepted frames (with their request
// id) must round-trip through WriteFrameID.
func FuzzReadFrameID(f *testing.F) {
	var good bytes.Buffer
	if err := WriteFrameID(&good, TCreateReq, 7, CreateReq{"x", 1}.Encode()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 1, 0, 0, 0, 9}) // minimal: empty payload
	f.Add([]byte{0, 0, 0, 4, 1, 0, 0, 0})    // length below the header
	f.Add([]byte{0, 0, 0, 0, 0})             // zero length
	f.Add([]byte{0, 0, 0, 1, 1})             // the old serial framing's minimal frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0}) // oversized length
	f.Add([]byte{0x45, 0x45, 0x56, 0x32})    // the preface magic itself
	f.Add([]byte{0, 0, 0, 9, 2, 0, 0, 0, 1, 'h', 'i'})

	f.Fuzz(func(t *testing.T, input []byte) {
		ty, id, payload, err := ReadFrameID(bytes.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrameID(&buf, ty, id, payload); err != nil {
			t.Fatalf("re-encoding accepted v2 frame failed: %v", err)
		}
		ty2, id2, payload2, err := ReadFrameID(&buf)
		if err != nil || ty2 != ty || id2 != id || !bytes.Equal(payload2, payload) {
			t.Fatal("v2 frame round trip mismatch")
		}
	})
}

// FuzzMessageDecoders throws arbitrary payloads at every decoder: none may
// panic, and decoded messages must re-encode without error.
func FuzzMessageDecoders(f *testing.F) {
	f.Add(CreateReq{"file", 100}.Encode())
	f.Add(ListResp{Names: []string{"a", "b"}}.Encode())
	f.Add(StatsResp{Disks: []DiskStats{{Name: "d", EnergyJ: 1}}}.Encode())
	f.Add(NodePrefetchReq{FileIDs: []int64{1, 2}}.Encode())
	f.Add(ErrorMsg{Msg: "boom", Code: CodeUnavailable}.Encode())
	f.Add(ErrorMsg{Msg: "moved", Code: CodeNotPrimary, Redirect: "127.0.0.1:9"}.Encode())
	legacy := ErrorMsg{Msg: "legacy"}.Encode()
	f.Add(legacy[:len(legacy)-8]) // pre-Code encoding: message only
	f.Add(legacy[:len(legacy)-4]) // pre-Redirect encoding: message + code
	f.Add(LookupResp{FileID: 3, Size: 10, NodeAddr: "127.0.0.1:9", Cacheable: true}.Encode())
	cacheable := LookupResp{FileID: 3, Size: 10, NodeAddr: "n"}.Encode()
	f.Add(cacheable[:len(cacheable)-1]) // pre-flag encoding: no Cacheable byte
	f.Add(AccessReq{Records: []AccessAge{{FileID: 4, Count: 3, FirstAge: 0.5, LastAge: 0.001}, {FileID: 9, Count: 1}}}.Encode())
	// A report with unordered ages and one with a zero count.
	f.Add(AccessReq{Records: []AccessAge{{FileID: 4, Count: 2, FirstAge: 0.001, LastAge: 0.5}}}.Encode())
	f.Add(AccessReq{Records: []AccessAge{{FileID: 4, Count: 0}}}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, input []byte) {
		if m, err := DecodeCreateReq(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeCreateResp(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeLookupResp(input); err == nil {
			// Re-encoding always emits the flag; it must decode back to
			// the same answer (a pre-flag input gains Cacheable false).
			if rt, err := DecodeLookupResp(m.Encode()); err != nil || rt != m {
				t.Fatalf("LookupResp round trip mismatch: %+v vs %+v (%v)", m, rt, err)
			}
		}
		if m, err := DecodeAccessReq(input); err == nil {
			for _, r := range m.Records {
				if r.FileID < 0 || r.Count <= 0 || !(r.LastAge >= 0 && r.FirstAge >= r.LastAge) {
					t.Fatalf("accepted a report no client sends: %+v", r)
				}
			}
			if rt, err := DecodeAccessReq(m.Encode()); err != nil || !reflect.DeepEqual(rt, m) {
				t.Fatalf("AccessReq round trip mismatch: %+v vs %+v (%v)", m, rt, err)
			}
		}
		if m, err := DecodeListResp(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeStatsResp(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeNodeWriteReq(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeNodeReadResp(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeNodePrefetchReq(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeErrorMsg(input); err == nil {
			// Re-encoding always emits the Code; it must decode back to
			// the same message (legacy inputs gain CodeGeneric).
			rt, err := DecodeErrorMsg(m.Encode())
			if err != nil || rt != m {
				t.Fatalf("ErrorMsg round trip mismatch: %+v vs %+v (%v)", m, rt, err)
			}
		}
	})
}

// FuzzRepDecoders throws arbitrary payloads at the replication frame
// decoders, which parse input from other servers rather than trusted
// local state: no panic, no over-allocation from hostile counts, and
// accepted messages must re-encode cleanly.
func FuzzRepDecoders(f *testing.F) {
	f.Add(RepAppendReq{Epoch: 3, From: 1, Ops: []RepOp{
		{Seq: 9, Kind: RepOpCreate, Name: "f", ID: 4, Size: 100, Node: 1, Cursor: 2},
		{Seq: 10, Kind: RepOpAccess, Records: []RepAccess{{FileID: 4, Count: 3, First: 1.5, Last: 9}}},
	}}.Encode())
	// A logged epoch (records dropped), an epoch whose last aggregate is
	// cut short, and one shipping a negative delta.
	f.Add(RepOp{Seq: 12, Kind: RepOpAccess}.Encode())
	epoch := RepOp{Seq: 13, Kind: RepOpAccess, Records: []RepAccess{
		{FileID: 4, Count: 1, First: 2, Last: 2}, {FileID: 2000, Count: 7, First: 0, Last: 4},
	}}.Encode()
	f.Add(epoch[:len(epoch)-8])
	f.Add(RepOp{Seq: 14, Kind: RepOpAccess, Records: []RepAccess{{FileID: 4, Count: -1, First: 1, Last: 2}}}.Encode())
	f.Add(RepOp{Seq: 11, Kind: RepOpDelete, Name: "f"}.Encode())
	f.Add(RepAppendResp{LastSeq: 10}.Encode())
	f.Add(RepSnapshot{Epoch: 2, Seq: 7, NextID: 5, NextNode: 1,
		Files:    []RepFile{{Name: "f", ID: 4, Size: 100, Node: 1, Replica: 2}},
		Accesses: []RepAccess{{FileID: 4, Count: 3, First: 1.5, Last: 9}},
	}.Encode())
	f.Add(RepStatusResp{Primary: true, Epoch: 2, Seq: 7, PrimaryIdx: 0}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, input []byte) {
		if m, err := DecodeRepAppendReq(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeRepOp(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeRepAppendResp(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeRepSnapshot(input); err == nil {
			_ = m.Encode()
		}
		if m, err := DecodeRepStatusResp(input); err == nil {
			_ = m.Encode()
		}
	})
}

package proto

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestRepAppendRoundTrip(t *testing.T) {
	m := RepAppendReq{Epoch: 7, From: 2, Ops: []RepOp{
		{Seq: 1, Kind: RepOpCreate, Name: "a", ID: 0, Size: 512, Node: 1, Cursor: 2},
		{Seq: 2, Kind: RepOpDelete, Name: "a"},
		{Seq: 3, Kind: RepOpAccess, Records: []RepAccess{
			{FileID: 0, Count: 1, First: 0.25, Last: 0.25},
			{FileID: 3, Count: 9, First: 0, Last: 1.75},
		}},
		{Seq: 4, Kind: RepOpReplica, Name: "b", Replica: 2},
	}}
	got, err := DecodeRepAppendReq(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}

	resp := RepAppendResp{LastSeq: 4}
	rt, err := DecodeRepAppendResp(resp.Encode())
	if err != nil || rt != resp {
		t.Fatalf("resp round trip: %+v, %v", rt, err)
	}
}

func TestRepSnapshotRoundTrip(t *testing.T) {
	m := RepSnapshot{Epoch: 3, Seq: 42, From: 1, NextID: 9, NextNode: 2,
		Files: []RepFile{
			{Name: "a", ID: 0, Size: 100, Node: 0},
			{Name: "b", ID: 1, Size: 200, Node: 1, Replica: 1},
		},
		Accesses: []RepAccess{{FileID: 1, Count: 4, First: 2.5, Last: 200}},
	}
	got, err := DecodeRepSnapshot(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	// Equal states must fingerprint identically: snapshot bytes are the
	// cross-replica determinism check.
	if !bytes.Equal(m.Encode(), got.Encode()) {
		t.Fatal("re-encoding a decoded snapshot changed its bytes")
	}
}

// TestRepAccessRejected: an access aggregate arrives from another server
// and indexes the follower's popularity table, so the decoders refuse
// what no primary ships — in an epoch op and in a snapshot alike.
func TestRepAccessRejected(t *testing.T) {
	good := RepAccess{FileID: 2, Count: 3, First: 1, Last: 4}
	encode := func(r RepAccess) (op, snap []byte) {
		return RepOp{Seq: 1, Kind: RepOpAccess, Records: []RepAccess{good, r}}.Encode(),
			RepSnapshot{Seq: 1, NextID: 9, Accesses: []RepAccess{good, r}}.Encode()
	}
	op, snap := encode(good)
	if _, err := DecodeRepOp(op); err != nil {
		t.Fatalf("well-formed epoch refused: %v", err)
	}
	if _, err := DecodeRepSnapshot(snap); err != nil {
		t.Fatalf("well-formed snapshot refused: %v", err)
	}
	// Truncated inside the last aggregate: every cut is a short payload.
	for cut := 1; cut < 32; cut++ {
		if _, err := DecodeRepOp(op[:len(op)-cut]); !errors.Is(err, ErrShortPayload) {
			t.Fatalf("epoch cut by %d bytes: %v, want ErrShortPayload", cut, err)
		}
		if _, err := DecodeRepSnapshot(snap[:len(snap)-cut]); !errors.Is(err, ErrShortPayload) {
			t.Fatalf("snapshot cut by %d bytes: %v, want ErrShortPayload", cut, err)
		}
	}
	for name, bad := range map[string]RepAccess{
		"negative delta": {FileID: 2, Count: -1, First: 1, Last: 4},
		"zero delta":     {FileID: 2, Count: 0, First: 1, Last: 4},
		"negative id":    {FileID: -2, Count: 1, First: 1, Last: 4},
		"negative time":  {FileID: 2, Count: 1, First: -1, Last: 4},
		"last < first":   {FileID: 2, Count: 2, First: 4, Last: 1},
		"NaN time":       {FileID: 2, Count: 2, First: math.NaN(), Last: 1},
	} {
		op, snap := encode(bad)
		if _, err := DecodeRepOp(op); !errors.Is(err, errBadRepAccess) {
			t.Errorf("%s in an epoch: %v, want errBadRepAccess", name, err)
		}
		if _, err := DecodeRepSnapshot(snap); !errors.Is(err, errBadRepAccess) {
			t.Errorf("%s in a snapshot: %v, want errBadRepAccess", name, err)
		}
	}
}

func TestRepStatusRoundTrip(t *testing.T) {
	for _, m := range []RepStatusResp{
		{},
		{Primary: true, Epoch: 1, Seq: 17, PrimaryIdx: 0},
		{Primary: false, Epoch: 9, Seq: 3, PrimaryIdx: 2},
	} {
		got, err := DecodeRepStatusResp(m.Encode())
		if err != nil || got != m {
			t.Fatalf("round trip mismatch: %+v vs %+v (%v)", got, m, err)
		}
	}
}

// TestErrorMsgRedirectCompat: redirect-bearing errors must decode on the
// new path, and pre-redirect (and pre-code) encodings must still parse.
func TestErrorMsgRedirectCompat(t *testing.T) {
	full := ErrorMsg{Msg: "fs: not primary", Code: CodeNotPrimary, Redirect: "127.0.0.1:7070"}
	got, err := DecodeErrorMsg(full.Encode())
	if err != nil || got != full {
		t.Fatalf("redirect round trip: %+v vs %+v (%v)", got, full, err)
	}
	enc := full.Encode()
	preRedirect := enc[:len(enc)-(4+len(full.Redirect))]
	got, err = DecodeErrorMsg(preRedirect)
	if err != nil || got.Msg != full.Msg || got.Code != full.Code || got.Redirect != "" {
		t.Fatalf("pre-redirect decode: %+v (%v)", got, err)
	}
	var e Encoder
	preCode := e.Str("old peer").Bytes()
	got, err = DecodeErrorMsg(preCode)
	if err != nil || got.Msg != "old peer" || got.Code != CodeGeneric || got.Redirect != "" {
		t.Fatalf("pre-code decode: %+v (%v)", got, err)
	}
}

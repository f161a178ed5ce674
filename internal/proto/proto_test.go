package proto

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestReadFrameIDTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameID(&buf, TListReq, 3, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, _, _, err := ReadFrameID(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestEncoderDecoderAllTypes(t *testing.T) {
	var e Encoder
	e.U32(7).U64(1 << 40).I64(-42).F64(3.5).Bool(true).Bool(false).
		Str("name").Blob([]byte{1, 2, 3})
	d := NewDecoder(e.Bytes())
	if d.U32() != 7 || d.U64() != 1<<40 || d.I64() != -42 || d.F64() != 3.5 {
		t.Fatal("numeric round trip failed")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool round trip failed")
	}
	if d.Str() != "name" || !bytes.Equal(d.Blob(), []byte{1, 2, 3}) {
		t.Fatal("string/blob round trip failed")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestDecoderTruncation(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	_ = d.U32()
	if !errors.Is(d.Err(), ErrShortPayload) {
		t.Fatalf("err = %v, want ErrShortPayload", d.Err())
	}
	// Further reads stay failed and return zero values.
	if d.U64() != 0 || d.Str() != "" || d.Blob() != nil {
		t.Fatal("reads after error returned data")
	}
}

func TestDecoderStrLengthLies(t *testing.T) {
	var e Encoder
	e.U32(100) // claims 100 bytes follow
	d := NewDecoder(append(e.Bytes(), 'x'))
	if d.Str() != "" || d.Err() == nil {
		t.Fatal("lying length accepted")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	checks := []struct {
		name   string
		encode func() []byte
		decode func([]byte) (any, error)
		want   any
	}{
		{"ErrorMsg", ErrorMsg{"boom", CodeGeneric, ""}.Encode,
			func(b []byte) (any, error) { return DecodeErrorMsg(b) }, ErrorMsg{"boom", CodeGeneric, ""}},
		{"ErrorMsgCoded", ErrorMsg{"gone", CodeUnavailable, ""}.Encode,
			func(b []byte) (any, error) { return DecodeErrorMsg(b) }, ErrorMsg{"gone", CodeUnavailable, ""}},
		{"ErrorMsgRedirect", ErrorMsg{"moved", CodeNotPrimary, "10.0.0.2:7070"}.Encode,
			func(b []byte) (any, error) { return DecodeErrorMsg(b) }, ErrorMsg{"moved", CodeNotPrimary, "10.0.0.2:7070"}},
		{"CreateReq", CreateReq{"f.dat", 123}.Encode,
			func(b []byte) (any, error) { return DecodeCreateReq(b) }, CreateReq{"f.dat", 123}},
		{"CreateResp", CreateResp{7, "1.2.3.4:9"}.Encode,
			func(b []byte) (any, error) { return DecodeCreateResp(b) }, CreateResp{7, "1.2.3.4:9"}},
		{"LookupReq", LookupReq{"f"}.Encode,
			func(b []byte) (any, error) { return DecodeLookupReq(b) }, LookupReq{"f"}},
		{"LookupResp", LookupResp{1, 2, "addr", true}.Encode,
			func(b []byte) (any, error) { return DecodeLookupResp(b) }, LookupResp{1, 2, "addr", true}},
		{"AccessReq", AccessReq{[]AccessAge{{4, 3, 0.5, 0.25}, {0, 1, 0, 0}}}.Encode,
			func(b []byte) (any, error) { return DecodeAccessReq(b) }, AccessReq{[]AccessAge{{4, 3, 0.5, 0.25}, {0, 1, 0, 0}}}},
		{"DeleteReq", DeleteReq{"f"}.Encode,
			func(b []byte) (any, error) { return DecodeDeleteReq(b) }, DeleteReq{"f"}},
		{"PrefetchReq", PrefetchReq{70}.Encode,
			func(b []byte) (any, error) { return DecodePrefetchReq(b) }, PrefetchReq{70}},
		{"PrefetchResp", PrefetchResp{12}.Encode,
			func(b []byte) (any, error) { return DecodePrefetchResp(b) }, PrefetchResp{12}},
		{"NodeCreateReq", NodeCreateReq{3, 999}.Encode,
			func(b []byte) (any, error) { return DecodeNodeCreateReq(b) }, NodeCreateReq{3, 999}},
		{"NodeReadReq", NodeReadReq{5}.Encode,
			func(b []byte) (any, error) { return DecodeNodeReadReq(b) }, NodeReadReq{5}},
		{"NodeWriteResp", NodeWriteResp{true}.Encode,
			func(b []byte) (any, error) { return DecodeNodeWriteResp(b) }, NodeWriteResp{true}},
		{"NodeDeleteReq", NodeDeleteReq{9}.Encode,
			func(b []byte) (any, error) { return DecodeNodeDeleteReq(b) }, NodeDeleteReq{9}},
	}
	for _, c := range checks {
		got, err := c.decode(c.encode())
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v want %+v", c.name, got, c.want)
		}
	}
}

func TestListRespRoundTrip(t *testing.T) {
	in := ListResp{Names: []string{"a", "b", "c"}}
	got, err := DecodeListResp(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v", got)
	}
	empty, err := DecodeListResp(ListResp{}.Encode())
	if err != nil || len(empty.Names) != 0 {
		t.Fatalf("empty list round trip: %+v %v", empty, err)
	}
}

func TestStatsRespRoundTrip(t *testing.T) {
	in := StatsResp{Disks: []DiskStats{
		{Name: "n0/buffer", EnergyJ: 12.5, SpinUps: 1, SpinDowns: 2, Requests: 3, BytesMoved: 4, State: "idle"},
		{Name: "n0/data0", EnergyJ: 8, State: "standby"},
	}}
	got, err := DecodeStatsResp(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v", got)
	}
}

func TestNodeReadWriteRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 1000)
	w := NodeWriteReq{FileID: 4, Data: data}
	gotW, err := DecodeNodeWriteReq(w.Encode())
	if err != nil || gotW.FileID != 4 || !bytes.Equal(gotW.Data, data) {
		t.Fatalf("write round trip: %v", err)
	}
	r := NodeReadResp{FromBuffer: true, Data: data}
	gotR, err := DecodeNodeReadResp(r.Encode())
	if err != nil || !gotR.FromBuffer || !bytes.Equal(gotR.Data, data) {
		t.Fatalf("read round trip: %v", err)
	}
}

func TestNodePrefetchReqRoundTrip(t *testing.T) {
	in := NodePrefetchReq{FileIDs: []int64{1, 5, 9}}
	got, err := DecodeNodePrefetchReq(in.Encode())
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	garbage := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := DecodeCreateReq(garbage); err == nil {
		t.Error("CreateReq decoded garbage")
	}
	if _, err := DecodeListResp(garbage); err == nil {
		t.Error("ListResp decoded garbage")
	}
	if _, err := DecodeStatsResp(garbage); err == nil {
		t.Error("StatsResp decoded garbage")
	}
	if _, err := DecodeNodePrefetchReq(garbage); err == nil {
		t.Error("NodePrefetchReq decoded garbage")
	}
}

// Property: any encoded CreateReq decodes to itself.
func TestQuickCreateReqRoundTrip(t *testing.T) {
	f := func(name string, size int64) bool {
		got, err := DecodeCreateReq(CreateReq{name, size}.Encode())
		return err == nil && got.Name == name && got.Size == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary bytes.
func TestQuickDecoderNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("decoder panicked")
			}
		}()
		_, _ = DecodeCreateReq(b)
		_, _ = DecodeLookupResp(b)
		_, _ = DecodeListResp(b)
		_, _ = DecodeStatsResp(b)
		_, _ = DecodeNodeWriteReq(b)
		_, _ = DecodeNodePrefetchReq(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := make([]byte, 4096)
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteFrameID(&buf, TNodeWriteReq, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := ReadFrameID(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

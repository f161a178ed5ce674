package proto

import "fmt"

// The typed messages below wrap the raw codec. Each has Encode/Decode; a
// Decode returning an error means the peer sent a malformed frame and the
// connection should be dropped.

// Code coarsely classifies a remote error so peers can react without
// parsing message text.
type Code uint32

// Remote error codes.
const (
	// CodeGeneric is any unclassified application failure.
	CodeGeneric Code = iota
	// CodeNotFound is a request naming an unknown file.
	CodeNotFound
	// CodeUnavailable means the request's target storage node is marked
	// unhealthy and the operation was refused rather than attempted.
	CodeUnavailable
	// CodeNotPrimary means the server is a replication follower; the
	// accompanying redirect names the address it believes is primary and
	// the client should retry there.
	CodeNotPrimary
	// CodeStaleEpoch rejects a replication frame from an epoch older than
	// the receiver's: a newer primary exists and the sender steps down.
	CodeStaleEpoch
	// CodeLogGap rejects an append that skips sequence numbers: the
	// sender resyncs the receiver with a snapshot.
	CodeLogGap
)

// String names the code for logs and telemetry counter suffixes.
func (c Code) String() string {
	switch c {
	case CodeGeneric:
		return "generic"
	case CodeNotFound:
		return "not-found"
	case CodeUnavailable:
		return "unavailable"
	case CodeNotPrimary:
		return "not-primary"
	case CodeStaleEpoch:
		return "stale-epoch"
	case CodeLogGap:
		return "log-gap"
	default:
		return fmt.Sprintf("code-%d", uint32(c))
	}
}

// ErrorMsg is sent in place of any response when a request fails. The
// code rides after the message so frames from pre-code peers (string
// only) still decode; the redirect (CodeNotPrimary only) rides after the
// code for the same reason.
type ErrorMsg struct {
	Msg      string
	Code     Code
	Redirect string // address of the believed primary; "" when unknown
}

// Encode serializes the message body.
func (m ErrorMsg) Encode() []byte {
	var e Encoder
	return e.Str(m.Msg).U32(uint32(m.Code)).Str(m.Redirect).Bytes()
}

// DecodeErrorMsg parses an ErrorMsg payload.
func DecodeErrorMsg(b []byte) (ErrorMsg, error) {
	d := NewDecoder(b)
	m := ErrorMsg{Msg: d.Str()}
	if d.Err() == nil && d.Remaining() >= 4 {
		m.Code = Code(d.U32())
	}
	if d.Err() == nil && d.Remaining() >= 4 {
		m.Redirect = d.Str()
	}
	return m, d.Err()
}

// RemoteError is an application-level failure reported by the peer in a
// TError frame. It is distinct from transport failures: the connection
// remains healthy and the operation must not be retried blindly.
type RemoteError struct {
	Code     Code
	Msg      string
	Redirect string // primary address hint accompanying CodeNotPrimary
}

// Error implements error. The "remote: " prefix is kept stable for log
// grepping (it predates the typed error).
func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// CreateReq asks the storage server to create a file; the server assigns
// a node and file id. Size is declared up front so placement and the
// buffer-capacity checks can run before data moves.
type CreateReq struct {
	Name string
	Size int64
}

// Encode serializes the message body.
func (m CreateReq) Encode() []byte {
	var e Encoder
	return e.Str(m.Name).I64(m.Size).Bytes()
}

// DecodeCreateReq parses a CreateReq payload.
func DecodeCreateReq(b []byte) (CreateReq, error) {
	d := NewDecoder(b)
	m := CreateReq{Name: d.Str(), Size: d.I64()}
	return m, d.Err()
}

// CreateResp returns the assignment: the client uploads the data directly
// to NodeAddr (step 6 of the paper's process flow, in reverse for writes).
type CreateResp struct {
	FileID   int64
	NodeAddr string
}

// Encode serializes the message body.
func (m CreateResp) Encode() []byte {
	var e Encoder
	return e.I64(m.FileID).Str(m.NodeAddr).Bytes()
}

// DecodeCreateResp parses a CreateResp payload.
func DecodeCreateResp(b []byte) (CreateResp, error) {
	d := NewDecoder(b)
	m := CreateResp{FileID: d.I64(), NodeAddr: d.Str()}
	return m, d.Err()
}

// LookupReq resolves a file name.
type LookupReq struct{ Name string }

// Encode serializes the message body.
func (m LookupReq) Encode() []byte { var e Encoder; return e.Str(m.Name).Bytes() }

// DecodeLookupReq parses a LookupReq payload.
func DecodeLookupReq(b []byte) (LookupReq, error) {
	d := NewDecoder(b)
	m := LookupReq{Name: d.Str()}
	return m, d.Err()
}

// LookupResp carries the node holding the file. The server deliberately
// does not know (or say) which disk inside the node has it, nor whether it
// is prefetched (Section IV-D). Cacheable marks an answer the client may
// keep and read through without asking again: NodeAddr is the file's
// owner (not a mirror standing in for it) and the create that gave the
// file its id has committed, so the id is never given to another name.
// It rides last, so a payload without it decodes as not cacheable.
type LookupResp struct {
	FileID    int64
	Size      int64
	NodeAddr  string
	Cacheable bool
}

// Encode serializes the message body.
func (m LookupResp) Encode() []byte {
	var e Encoder
	return e.I64(m.FileID).I64(m.Size).Str(m.NodeAddr).Bool(m.Cacheable).Bytes()
}

// DecodeLookupResp parses a LookupResp payload.
func DecodeLookupResp(b []byte) (LookupResp, error) {
	d := NewDecoder(b)
	m := LookupResp{FileID: d.I64(), Size: d.I64(), NodeAddr: d.Str()}
	if d.Err() == nil && d.Remaining() > 0 {
		m.Cacheable = d.Bool()
	}
	return m, d.Err()
}

// AccessAge is one file's reads in an access report: Count reads, the
// earliest FirstAge seconds and the latest LastAge seconds before the
// report left the client.
type AccessAge struct {
	FileID            int64
	Count             int64
	FirstAge, LastAge float64
}

// AccessReq reports the reads a client served from its location cache
// since its previous report, one AccessAge per file. Ages, not times:
// the server places them on its own clock, so client and server clocks
// need not agree.
type AccessReq struct{ Records []AccessAge }

// Encode serializes the message body.
func (m AccessReq) Encode() []byte {
	var e Encoder
	e.U32(uint32(len(m.Records)))
	for _, r := range m.Records {
		e.I64(r.FileID).I64(r.Count).F64(r.FirstAge).F64(r.LastAge)
	}
	return e.Bytes()
}

// DecodeAccessReq parses an AccessReq payload. Like a replicated fold it
// refuses what no client sends — a negative id, a count below one, a
// negative age or a first read younger than the last — written so that
// a NaN age fails too.
func DecodeAccessReq(b []byte) (AccessReq, error) {
	d := NewDecoder(b)
	var m AccessReq
	for n := d.U32(); n > 0 && d.err == nil; n-- {
		r := AccessAge{FileID: d.I64(), Count: d.I64(), FirstAge: d.F64(), LastAge: d.F64()}
		if d.err == nil && (r.FileID < 0 || r.Count <= 0 || !(r.LastAge >= 0 && r.FirstAge >= r.LastAge)) {
			d.err = errBadAccessAge
		}
		m.Records = append(m.Records, r)
	}
	return m, d.Err()
}

// ListResp enumerates file names (ListReq has an empty body).
type ListResp struct{ Names []string }

// Encode serializes the message body.
func (m ListResp) Encode() []byte {
	var e Encoder
	e.U32(uint32(len(m.Names)))
	for _, n := range m.Names {
		e.Str(n)
	}
	return e.Bytes()
}

// DecodeListResp parses a ListResp payload.
func DecodeListResp(b []byte) (ListResp, error) {
	d := NewDecoder(b)
	n := d.U32()
	if d.Err() != nil {
		return ListResp{}, d.Err()
	}
	m := ListResp{}
	for i := uint32(0); i < n; i++ {
		m.Names = append(m.Names, d.Str())
		if d.Err() != nil {
			return ListResp{}, d.Err()
		}
	}
	return m, d.Err()
}

// DeleteReq removes a file by name; DeleteResp has an empty body.
type DeleteReq struct{ Name string }

// Encode serializes the message body.
func (m DeleteReq) Encode() []byte { var e Encoder; return e.Str(m.Name).Bytes() }

// DecodeDeleteReq parses a DeleteReq payload.
func DecodeDeleteReq(b []byte) (DeleteReq, error) {
	d := NewDecoder(b)
	m := DeleteReq{Name: d.Str()}
	return m, d.Err()
}

// PrefetchReq asks the server to run the popularity analysis and command
// the storage nodes to prefetch the top K files.
type PrefetchReq struct{ K int64 }

// Encode serializes the message body.
func (m PrefetchReq) Encode() []byte { var e Encoder; return e.I64(m.K).Bytes() }

// DecodePrefetchReq parses a PrefetchReq payload.
func DecodePrefetchReq(b []byte) (PrefetchReq, error) {
	d := NewDecoder(b)
	m := PrefetchReq{K: d.I64()}
	return m, d.Err()
}

// PrefetchResp reports how many files were copied into buffer disks.
type PrefetchResp struct{ Prefetched int64 }

// Encode serializes the message body.
func (m PrefetchResp) Encode() []byte { var e Encoder; return e.I64(m.Prefetched).Bytes() }

// DecodePrefetchResp parses a PrefetchResp payload.
func DecodePrefetchResp(b []byte) (PrefetchResp, error) {
	d := NewDecoder(b)
	m := PrefetchResp{Prefetched: d.I64()}
	return m, d.Err()
}

// DiskStats mirrors disk.Stats across the wire.
type DiskStats struct {
	Name       string
	EnergyJ    float64
	SpinUps    int64
	SpinDowns  int64
	Requests   int64
	BytesMoved int64
	State      string
}

func (m DiskStats) encode(e *Encoder) {
	e.Str(m.Name).F64(m.EnergyJ).I64(m.SpinUps).I64(m.SpinDowns).
		I64(m.Requests).I64(m.BytesMoved).Str(m.State)
}

func decodeDiskStats(d *Decoder) DiskStats {
	return DiskStats{
		Name: d.Str(), EnergyJ: d.F64(), SpinUps: d.I64(), SpinDowns: d.I64(),
		Requests: d.I64(), BytesMoved: d.I64(), State: d.Str(),
	}
}

// CounterStat is one named telemetry counter in a stats snapshot.
type CounterStat struct {
	Name  string
	Value int64
}

// StatsResp aggregates disk stats (from a node: its own disks; from the
// server: all nodes' disks) plus a counter snapshot (buffer hit/miss
// accounting and, when the peer runs a telemetry registry, its counters).
type StatsResp struct {
	Disks    []DiskStats
	Counters []CounterStat
}

// Encode serializes the message body.
func (m StatsResp) Encode() []byte {
	var e Encoder
	e.U32(uint32(len(m.Disks)))
	for _, ds := range m.Disks {
		ds.encode(&e)
	}
	e.U32(uint32(len(m.Counters)))
	for _, c := range m.Counters {
		e.Str(c.Name).I64(c.Value)
	}
	return e.Bytes()
}

// DecodeStatsResp parses a StatsResp payload. A payload ending after the
// disk section (a pre-counter peer) decodes with no counters.
func DecodeStatsResp(b []byte) (StatsResp, error) {
	d := NewDecoder(b)
	n := d.U32()
	if d.Err() != nil {
		return StatsResp{}, d.Err()
	}
	m := StatsResp{}
	for i := uint32(0); i < n; i++ {
		m.Disks = append(m.Disks, decodeDiskStats(d))
		if d.Err() != nil {
			return StatsResp{}, d.Err()
		}
	}
	if d.Remaining() == 0 {
		return m, d.Err()
	}
	cn := d.U32()
	if d.Err() != nil {
		return StatsResp{}, d.Err()
	}
	for i := uint32(0); i < cn; i++ {
		m.Counters = append(m.Counters, CounterStat{Name: d.Str(), Value: d.I64()})
		if d.Err() != nil {
			return StatsResp{}, d.Err()
		}
	}
	return m, d.Err()
}

// NodeCreateReq registers a file on a storage node (server -> node).
type NodeCreateReq struct {
	FileID int64
	Size   int64
}

// Encode serializes the message body.
func (m NodeCreateReq) Encode() []byte {
	var e Encoder
	return e.I64(m.FileID).I64(m.Size).Bytes()
}

// DecodeNodeCreateReq parses a NodeCreateReq payload.
func DecodeNodeCreateReq(b []byte) (NodeCreateReq, error) {
	d := NewDecoder(b)
	m := NodeCreateReq{FileID: d.I64(), Size: d.I64()}
	return m, d.Err()
}

// NodeReadReq fetches a file's content from a storage node.
type NodeReadReq struct{ FileID int64 }

// Encode serializes the message body.
func (m NodeReadReq) Encode() []byte { var e Encoder; return e.I64(m.FileID).Bytes() }

// DecodeNodeReadReq parses a NodeReadReq payload.
func DecodeNodeReadReq(b []byte) (NodeReadReq, error) {
	d := NewDecoder(b)
	m := NodeReadReq{FileID: d.I64()}
	return m, d.Err()
}

// NodeReadResp returns file content plus whether the buffer disk served it
// (observable behaviour for tests and the stats CLI).
type NodeReadResp struct {
	FromBuffer bool
	Data       []byte
}

// Encode serializes the message body.
func (m NodeReadResp) Encode() []byte {
	var e Encoder
	return e.Bool(m.FromBuffer).Blob(m.Data).Bytes()
}

// NodeReadRespHead is how many bytes of an encoded NodeReadResp precede
// its Data.
const NodeReadRespHead = 5

// PutNodeReadRespHead encodes in place: b[NodeReadRespHead:] holds (or
// will hold) the n bytes of Data, and b becomes what Encode would return.
func PutNodeReadRespHead(b []byte, fromBuffer bool, n int) {
	(&Encoder{buf: b[:0]}).Bool(fromBuffer).U32(uint32(n))
}

// DecodeNodeReadResp parses a NodeReadResp payload.
func DecodeNodeReadResp(b []byte) (NodeReadResp, error) {
	d := NewDecoder(b)
	m := NodeReadResp{FromBuffer: d.Bool(), Data: d.Blob()}
	return m, d.Err()
}

// NodeWriteReq stores file content on a storage node.
type NodeWriteReq struct {
	FileID int64
	Data   []byte
}

// Encode serializes the message body.
func (m NodeWriteReq) Encode() []byte {
	var e Encoder
	return e.I64(m.FileID).Blob(m.Data).Bytes()
}

// DecodeNodeWriteReq parses a NodeWriteReq payload.
func DecodeNodeWriteReq(b []byte) (NodeWriteReq, error) {
	d := NewDecoder(b)
	m := NodeWriteReq{FileID: d.I64(), Data: d.Blob()}
	return m, d.Err()
}

// NodeWriteResp reports whether the write-buffer area absorbed the write.
type NodeWriteResp struct{ Buffered bool }

// Encode serializes the message body.
func (m NodeWriteResp) Encode() []byte { var e Encoder; return e.Bool(m.Buffered).Bytes() }

// DecodeNodeWriteResp parses a NodeWriteResp payload.
func DecodeNodeWriteResp(b []byte) (NodeWriteResp, error) {
	d := NewDecoder(b)
	m := NodeWriteResp{Buffered: d.Bool()}
	return m, d.Err()
}

// NodeDeleteReq removes a file from a storage node.
type NodeDeleteReq struct{ FileID int64 }

// Encode serializes the message body.
func (m NodeDeleteReq) Encode() []byte { var e Encoder; return e.I64(m.FileID).Bytes() }

// DecodeNodeDeleteReq parses a NodeDeleteReq payload.
func DecodeNodeDeleteReq(b []byte) (NodeDeleteReq, error) {
	d := NewDecoder(b)
	m := NodeDeleteReq{FileID: d.I64()}
	return m, d.Err()
}

// NodeReadAtReq fetches a byte range of a file from a storage node
// (partial I/O; the paper's workloads are whole-file, but PVFS-style
// clients expect ranged reads).
type NodeReadAtReq struct {
	FileID int64
	Offset int64
	Length int64
}

// Encode serializes the message body.
func (m NodeReadAtReq) Encode() []byte {
	var e Encoder
	return e.I64(m.FileID).I64(m.Offset).I64(m.Length).Bytes()
}

// DecodeNodeReadAtReq parses a NodeReadAtReq payload.
func DecodeNodeReadAtReq(b []byte) (NodeReadAtReq, error) {
	d := NewDecoder(b)
	m := NodeReadAtReq{FileID: d.I64(), Offset: d.I64(), Length: d.I64()}
	return m, d.Err()
}

// NodePrefetchReq commands a node to copy the listed files into its
// buffer disk (step 3/4 of the process flow).
type NodePrefetchReq struct{ FileIDs []int64 }

// Encode serializes the message body.
func (m NodePrefetchReq) Encode() []byte {
	var e Encoder
	e.U32(uint32(len(m.FileIDs)))
	for _, id := range m.FileIDs {
		e.I64(id)
	}
	return e.Bytes()
}

// DecodeNodePrefetchReq parses a NodePrefetchReq payload.
func DecodeNodePrefetchReq(b []byte) (NodePrefetchReq, error) {
	d := NewDecoder(b)
	n := d.U32()
	if d.Err() != nil {
		return NodePrefetchReq{}, d.Err()
	}
	m := NodePrefetchReq{}
	for i := uint32(0); i < n; i++ {
		m.FileIDs = append(m.FileIDs, d.I64())
		if d.Err() != nil {
			return NodePrefetchReq{}, d.Err()
		}
	}
	return m, d.Err()
}

// FileHint carries one file's predicted access behaviour: the mean
// inter-arrival of requests observed by the storage server.
type FileHint struct {
	FileID          int64
	MeanIntervalSec float64
}

// NodeHintsReq forwards application hints / access patterns to a storage
// node (steps 3-4 of the paper's process flow): the node uses them to
// predict idle windows and sleep data disks proactively (Section IV-C).
type NodeHintsReq struct {
	Hints []FileHint
}

// Encode serializes the message body.
func (m NodeHintsReq) Encode() []byte {
	var e Encoder
	e.U32(uint32(len(m.Hints)))
	for _, h := range m.Hints {
		e.I64(h.FileID).F64(h.MeanIntervalSec)
	}
	return e.Bytes()
}

// DecodeNodeHintsReq parses a NodeHintsReq payload.
func DecodeNodeHintsReq(b []byte) (NodeHintsReq, error) {
	d := NewDecoder(b)
	n := d.U32()
	if d.Err() != nil {
		return NodeHintsReq{}, d.Err()
	}
	m := NodeHintsReq{}
	for i := uint32(0); i < n; i++ {
		m.Hints = append(m.Hints, FileHint{FileID: d.I64(), MeanIntervalSec: d.F64()})
		if d.Err() != nil {
			return NodeHintsReq{}, d.Err()
		}
	}
	return m, d.Err()
}

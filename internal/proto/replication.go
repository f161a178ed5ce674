package proto

// Replication messages: the metadata op log a primary server streams to
// its followers, the snapshot used to (re)sync a follower that missed
// ops, and the status probe followers use to watch the primary and run
// elections. All of it rides the same v2 mux as client traffic.

// RepOp kinds. A RepOp is one logged metadata mutation.
const (
	// RepOpCreate places a new file: Name, ID, Size, Node (and the
	// primary's post-placement round-robin cursor) are set.
	RepOpCreate uint32 = iota + 1
	// RepOpDelete removes Name from the namespace.
	RepOpDelete
	// RepOpAccess is a popularity epoch: one RepAccess delta per file
	// looked up on the primary since the last epoch.
	RepOpAccess
	// RepOpReplica sets or clears (Replica == 0) the buffer-disk replica
	// marker on Name.
	RepOpReplica
)

// RepAccess is one file's replicated access fold: Count lookups (inside
// an epoch op, since the previous epoch; inside a snapshot, in total),
// the earliest at First and the latest at Last. A follower folds it in
// as count += Count, first = min, last = max.
type RepAccess struct {
	FileID      int64
	Count       int64
	First, Last float64
}

func encodeRepAccesses(e *Encoder, recs []RepAccess) {
	e.U32(uint32(len(recs)))
	for _, r := range recs {
		e.I64(r.FileID).I64(r.Count).F64(r.First).F64(r.Last)
	}
}

// decodeRepAccesses refuses what no primary ships: a follower indexes a
// table by FileID and orders the times by their bit patterns. The times
// test is written so that NaN fails it.
func decodeRepAccesses(d *Decoder) (recs []RepAccess) {
	for n := d.U32(); n > 0 && d.err == nil; n-- {
		r := RepAccess{FileID: d.I64(), Count: d.I64(), First: d.F64(), Last: d.F64()}
		if d.err == nil && (r.FileID < 0 || r.Count <= 0 || !(r.First >= 0 && r.Last >= r.First)) {
			d.err = errBadRepAccess
		}
		recs = append(recs, r)
	}
	return recs
}

// RepOp is one entry of the ordered metadata operation log. Seq numbers
// are dense and assigned by the primary; a follower applies op N+1 only
// after op N, acks duplicates idempotently, and reports a gap so the
// primary falls back to a snapshot.
type RepOp struct {
	Seq     uint64
	Kind    uint32
	Name    string
	ID      int64
	Size    int64
	Node    int64
	Replica int64 // replica node index + 1; 0 = none
	Cursor  int64 // primary's placement cursor after this op (RepOpCreate)
	Records []RepAccess
}

func (op RepOp) encode(e *Encoder) {
	e.U64(op.Seq).U32(op.Kind).Str(op.Name).I64(op.ID).I64(op.Size)
	e.I64(op.Node).I64(op.Replica).I64(op.Cursor)
	encodeRepAccesses(e, op.Records)
}

// Encode serializes one op on its own — the record format of the
// server's on-disk op log, identical to the op's encoding inside a
// RepAppendReq.
func (op RepOp) Encode() []byte {
	var e Encoder
	op.encode(&e)
	return e.Bytes()
}

// DecodeRepOp parses the output of RepOp.Encode.
func DecodeRepOp(b []byte) (RepOp, error) {
	d := NewDecoder(b)
	op := decodeRepOp(d)
	return op, d.Err()
}

func decodeRepOp(d *Decoder) RepOp {
	return RepOp{
		Seq:     d.U64(),
		Kind:    d.U32(),
		Name:    d.Str(),
		ID:      d.I64(),
		Size:    d.I64(),
		Node:    d.I64(),
		Replica: d.I64(),
		Cursor:  d.I64(),
		Records: decodeRepAccesses(d),
	}
}

// RepAppendReq carries a batch of consecutive ops from the primary.
// Epoch fences stale primaries: a receiver in a later epoch rejects the
// batch, and a primary receiving a batch from a later epoch steps down.
type RepAppendReq struct {
	Epoch uint64
	From  int64 // sender's index in the peer list
	Ops   []RepOp
}

// Encode serializes the message body.
func (m RepAppendReq) Encode() []byte {
	var e Encoder
	e.U64(m.Epoch).I64(m.From).U32(uint32(len(m.Ops)))
	for _, op := range m.Ops {
		op.encode(&e)
	}
	return e.Bytes()
}

// DecodeRepAppendReq parses a RepAppendReq payload.
func DecodeRepAppendReq(b []byte) (RepAppendReq, error) {
	d := NewDecoder(b)
	m := RepAppendReq{Epoch: d.U64(), From: d.I64()}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		m.Ops = append(m.Ops, decodeRepOp(d))
	}
	return m, d.Err()
}

// RepAppendResp acks an append with the follower's last applied seq.
type RepAppendResp struct {
	LastSeq uint64
}

// Encode serializes the message body.
func (m RepAppendResp) Encode() []byte {
	var e Encoder
	return e.U64(m.LastSeq).Bytes()
}

// DecodeRepAppendResp parses a RepAppendResp payload.
func DecodeRepAppendResp(b []byte) (RepAppendResp, error) {
	d := NewDecoder(b)
	m := RepAppendResp{LastSeq: d.U64()}
	return m, d.Err()
}

// RepFile is one file record inside a snapshot, sorted by name so that
// equal metadata states always serialize to identical bytes.
type RepFile struct {
	Name    string
	ID      int64
	Size    int64
	Node    int64
	Replica int64 // replica node index + 1; 0 = none
}

// RepSnapshot is the full metadata state, used to sync a follower whose
// log position is unknown or gapped. It is also the canonical "state
// fingerprint": the determinism tests compare snapshot bytes across
// replicas.
type RepSnapshot struct {
	Epoch    uint64
	Seq      uint64
	From     int64
	NextID   int64
	NextNode int64
	Files    []RepFile
	Accesses []RepAccess
}

// Encode serializes the message body.
func (m RepSnapshot) Encode() []byte {
	var e Encoder
	e.U64(m.Epoch).U64(m.Seq).I64(m.From).I64(m.NextID).I64(m.NextNode)
	e.U32(uint32(len(m.Files)))
	for _, f := range m.Files {
		e.Str(f.Name).I64(f.ID).I64(f.Size).I64(f.Node).I64(f.Replica)
	}
	encodeRepAccesses(&e, m.Accesses)
	return e.Bytes()
}

// DecodeRepSnapshot parses a RepSnapshot payload.
func DecodeRepSnapshot(b []byte) (RepSnapshot, error) {
	d := NewDecoder(b)
	m := RepSnapshot{
		Epoch:    d.U64(),
		Seq:      d.U64(),
		From:     d.I64(),
		NextID:   d.I64(),
		NextNode: d.I64(),
	}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		m.Files = append(m.Files, RepFile{
			Name: d.Str(), ID: d.I64(), Size: d.I64(), Node: d.I64(), Replica: d.I64(),
		})
	}
	m.Accesses = decodeRepAccesses(d)
	return m, d.Err()
}

// RepStatusResp answers a (payload-free) TRepStatusReq: who the server
// thinks it is. Elections compare (Seq, index) across reachable peers.
type RepStatusResp struct {
	Primary    bool
	Epoch      uint64
	Seq        uint64
	PrimaryIdx int64 // index the server believes is primary
}

// Encode serializes the message body.
func (m RepStatusResp) Encode() []byte {
	var e Encoder
	return e.Bool(m.Primary).U64(m.Epoch).U64(m.Seq).I64(m.PrimaryIdx).Bytes()
}

// DecodeRepStatusResp parses a RepStatusResp payload.
func DecodeRepStatusResp(b []byte) (RepStatusResp, error) {
	d := NewDecoder(b)
	m := RepStatusResp{Primary: d.Bool(), Epoch: d.U64(), Seq: d.U64(), PrimaryIdx: d.I64()}
	return m, d.Err()
}

package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"eevfs/internal/rng"
	"eevfs/internal/workload"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// contentGen derives every byte the benchmark stores from (seed, file,
// version): a 16-byte stamp followed by a seeded pseudo-random block
// repeated to the file's size. The block length is odd, so a chunk that
// arrives at the wrong offset, or from another version, changes the CRC.
type contentGen struct {
	seed  uint64
	block []byte
}

func newContentGen(seed uint64) *contentGen {
	block := make([]byte, 1<<20-3)
	x := seed | 1
	for i := 0; i+8 <= len(block); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(block[i:], x)
	}
	return &contentGen{seed: seed, block: block}
}

// payloadReader streams one file's content and accumulates its CRC32-C,
// which is the value a later read of that version must reproduce.
type payloadReader struct {
	gen   *contentGen
	stamp [16]byte
	off   int64
	size  int64
	crc   uint32
}

func (c *contentGen) reader(file int, version uint32, size int64) *payloadReader {
	r := &payloadReader{gen: c, size: size}
	binary.LittleEndian.PutUint64(r.stamp[0:], c.seed)
	binary.LittleEndian.PutUint32(r.stamp[8:], uint32(file))
	binary.LittleEndian.PutUint32(r.stamp[12:], version)
	return r
}

func (r *payloadReader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	if left := r.size - r.off; int64(len(p)) > left {
		p = p[:left]
	}
	var n int
	if r.off < int64(len(r.stamp)) {
		n = copy(p, r.stamp[r.off:])
	} else {
		n = copy(p, r.gen.block[r.off%int64(len(r.gen.block)):])
	}
	r.crc = crc32.Update(r.crc, castagnoli, p[:n])
	r.off += int64(n)
	return n, nil
}

// fill writes one whole payload into buf and returns its CRC32-C.
func (c *contentGen) fill(buf []byte, file int, version uint32) uint32 {
	r := c.reader(file, version, int64(len(buf)))
	_, _ = io.ReadFull(r, buf) // the reader cannot fail before size bytes
	return r.crc
}

// crcWriter is the verifier streamed reads are copied into.
type crcWriter struct {
	crc uint32
	n   int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.n += int64(len(p))
	return len(p), nil
}

// opKind is an operation class.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opCreate
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "create", "delete"}

// op is one generated operation. version is the payload stamp a write
// carries, and the one a read expects.
type op struct {
	kind    opKind
	file    int
	name    string
	version uint32
}

// opMix is the share of writes, creates and deletes; the rest are reads.
type opMix struct{ write, create, del float64 }

// opGen is one logical client's deterministic operation stream. Seeds
// are derived the way fs.RunLoad derives them, so history stays
// comparable: popularity from seed + g·0x9e3779b9, arrivals from seed+g.
type opGen struct {
	g, clients int
	owned      bool // sample only files ≡ g (mod clients): this client's range
	mix        opMix
	src        *rng.Source
	zipf       *rng.Zipf
	arr        *workload.Arrivals
	versions   map[int]uint32 // last generated version per written file
	created    []string       // names this client created and has not deleted
	creates    int
}

// createdFileBase keeps the stamps of created files apart from the
// preloaded set's.
const createdFileBase = 1 << 30

func newOpGen(seed uint64, g, clients int, w liveWorkload) *opGen {
	o := &opGen{
		g: g, clients: clients, owned: w.owned, mix: w.mix,
		src:      rng.New(seed + uint64(g)*0x9e3779b9),
		versions: map[int]uint32{},
	}
	n := w.files
	if w.owned {
		n = w.files / clients
	}
	o.zipf = rng.NewZipf(o.src, n, w.zipf)
	var err error
	o.arr, err = workload.NewArrivals(workload.OpenLoopConfig{
		RatePerSec: w.rate / float64(clients), Seed: seed + uint64(g),
	})
	check(err, "building arrival schedule")
	return o
}

func fileName(i int) string { return fmt.Sprintf("bench-%06d.dat", i) }

// next returns the client's next operation.
func (o *opGen) next() op {
	file := o.zipf.Sample()
	if o.owned {
		file = file*o.clients + o.g
	}
	out := op{kind: opRead, file: file}
	u := o.src.Float64()
	switch {
	case u < o.mix.write:
		out.kind = opWrite
	case u < o.mix.write+o.mix.create:
		out.kind = opCreate
	case u < o.mix.write+o.mix.create+o.mix.del:
		out.kind = opDelete
		if len(o.created) == 0 {
			out.kind = opCreate // nothing of this client's to delete yet
		}
	}
	switch out.kind {
	case opRead:
		out.name = fileName(file)
		out.version = o.versions[file]
	case opWrite:
		out.name = fileName(file)
		o.versions[file]++
		out.version = o.versions[file]
	case opCreate:
		out.file = createdFileBase + o.g<<20 + o.creates
		out.name = fmt.Sprintf("bench-c%02d-%07d.dat", o.g, o.creates)
		o.creates++
		o.created = append(o.created, out.name)
	case opDelete:
		out.name = o.created[0]
		o.created = o.created[1:]
	}
	return out
}

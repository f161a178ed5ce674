package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// kv is the toy state machine the oracle recovers: records are "set key
// to value" with a dense sequence number, and the checkpoint is the whole
// map. Like the server's op log, replay skips records the checkpoint
// already reflects and refuses a gap.
type kv struct {
	seq uint64
	m   map[byte]byte
}

func kvRecord(seq uint64, k, v byte) []byte {
	return append(binary.BigEndian.AppendUint64(nil, seq), k, v)
}

func (s *kv) apply(rec []byte) error {
	if len(rec) != 10 {
		return fmt.Errorf("record of %d bytes", len(rec))
	}
	seq := binary.BigEndian.Uint64(rec)
	if seq <= s.seq {
		return nil
	}
	if seq != s.seq+1 {
		return fmt.Errorf("gap: have %d, got %d", s.seq, seq)
	}
	s.seq, s.m[rec[8]] = seq, rec[9]
	return nil
}

func (s *kv) snapshot() []byte {
	out := binary.BigEndian.AppendUint64(nil, s.seq)
	for k := 0; k < 256; k++ {
		if v, ok := s.m[byte(k)]; ok {
			out = append(out, byte(k), v)
		}
	}
	return out
}

func (s *kv) load(b []byte) error {
	if len(b) < 8 || len(b)%2 != 0 {
		return errors.New("bad checkpoint")
	}
	s.seq = binary.BigEndian.Uint64(b)
	for i := 8; i < len(b); i += 2 {
		s.m[b[i]] = b[i+1]
	}
	return nil
}

func (s *kv) clone() map[byte]byte {
	c := make(map[byte]byte, len(s.m))
	for k, v := range s.m {
		c[k] = v
	}
	return c
}

func openKV(t *testing.T, dir string) (*kv, *Log, error) {
	t.Helper()
	s := &kv{m: map[byte]byte{}}
	l, err := Open(filepath.Join(dir, "ckpt"), filepath.Join(dir, "log"), s.load, s.apply)
	return s, l, err
}

func TestAppendReplayCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, l, err := openKV(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	// A batch is one write; records replay in order.
	if err := l.Append(kvRecord(1, 'a', 1), kvRecord(2, 'b', 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(kvRecord(3, 'a', 3)); err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * (headerLen + 10)); l.Size() != want {
		t.Fatalf("Size = %d, want %d", l.Size(), want)
	}
	l.Close()

	s, l, err = openKV(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[byte]byte{'a': 3, 'b': 2}; !reflect.DeepEqual(s.m, want) || s.seq != 3 {
		t.Fatalf("recovered %v at seq %d", s.m, s.seq)
	}
	if err := l.Checkpoint(s.snapshot()); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("log holds %d bytes after a checkpoint", l.Size())
	}
	if err := l.Append(kvRecord(4, 'c', 4)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	s, l, err = openKV(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if want := map[byte]byte{'a': 3, 'b': 2, 'c': 4}; !reflect.DeepEqual(s.m, want) || s.seq != 4 {
		t.Fatalf("recovered %v at seq %d after checkpoint + log", s.m, s.seq)
	}
	if err := l.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	_, l, err := openKV(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(kvRecord(1, 'a', 1), kvRecord(2, 'b', 2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	logPath := filepath.Join(dir, "log")
	raw, _ := os.ReadFile(logPath)
	if err := os.WriteFile(logPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s, l, err := openKV(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.seq != 1 || l.Size() != headerLen+10 {
		t.Fatalf("recovered seq %d, log %d bytes", s.seq, l.Size())
	}
	// The torn bytes are gone from disk, so the next append is reachable.
	if err := l.Append(kvRecord(2, 'b', 9)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	s, l, err = openKV(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if s.seq != 2 || s.m['b'] != 9 {
		t.Fatalf("append after a truncated tail was lost: %v at seq %d", s.m, s.seq)
	}
}

func TestOpenRefusesWhatChecksumsCannotExplain(t *testing.T) {
	dir := t.TempDir()
	_, l, err := openKV(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Intact frames with a hole in the sequence: not a torn tail.
	if err := l.Append(kvRecord(1, 'a', 1), kvRecord(3, 'b', 2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, err := openKV(t, dir); err == nil {
		t.Fatal("log with a sequence gap recovered")
	}
	os.Remove(filepath.Join(dir, "log"))
	if err := os.WriteFile(filepath.Join(dir, "ckpt"), []byte("odd"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openKV(t, dir); err == nil {
		t.Fatal("corrupt checkpoint recovered")
	}
}

func TestNeedsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	_, l, err := openKV(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := make([]byte, 8<<10)
	for i := 0; l.Size() <= minLogBytes; i++ {
		if l.NeedsCheckpoint() {
			t.Fatalf("checkpoint due at %d bytes, under the %d floor", l.Size(), minLogBytes)
		}
		if err := l.Append(big); err != nil {
			t.Fatal(err)
		}
	}
	if !l.NeedsCheckpoint() {
		t.Fatal("log past the floor with no checkpoint: none due")
	}
	// After a 100 KiB checkpoint the threshold is twice that.
	if err := l.Checkpoint(make([]byte, 100<<10)); err != nil {
		t.Fatal(err)
	}
	for l.Size() <= 200<<10 {
		if l.NeedsCheckpoint() {
			t.Fatalf("checkpoint due at %d bytes, under twice the last checkpoint", l.Size())
		}
		if err := l.Append(big); err != nil {
			t.Fatal(err)
		}
	}
	if !l.NeedsCheckpoint() {
		t.Fatal("log past twice the last checkpoint: none due")
	}
}

// crashPrefixOracle runs a scripted history, then damages the log in
// every way a crash or a bad sector can — a cut at every record boundary
// and inside every record, and every single flipped bit — and requires
// each recovery to be the state after some prefix of the history.
// recovery is the code under test; a nil return means it refused to start.
func crashPrefixOracle(t *testing.T, recovery func(log []byte) map[byte]byte) (violations int) {
	t.Helper()
	var history [][]byte
	var log []byte
	s := &kv{m: map[byte]byte{}}
	prefixes := []map[byte]byte{s.clone()}
	for i := 1; i <= 12; i++ {
		rec := kvRecord(uint64(i), byte('a'+i%4), byte(i))
		history = append(history, rec)
		log = AppendFrame(log, rec)
		if err := s.apply(rec); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, s.clone())
	}
	isPrefix := func(got map[byte]byte) bool {
		for _, p := range prefixes {
			if reflect.DeepEqual(got, p) {
				return true
			}
		}
		return false
	}
	check := func(what string, damaged []byte, wantExact map[byte]byte) {
		got := recovery(damaged)
		var why string
		switch {
		case got == nil:
			why = "recovery refused to start"
		case !isPrefix(got):
			why = fmt.Sprintf("recovered %v, the state after no prefix of the history", got)
		case !reflect.DeepEqual(got, wantExact):
			why = fmt.Sprintf("recovered %v, want exactly %v", got, wantExact)
		default:
			return
		}
		if violations++; violations <= 3 {
			t.Logf("%s: %s", what, why)
		}
	}
	frame := headerLen + len(history[0])
	for cut := 0; cut <= len(log); cut++ {
		// Everything wholly before the cut was acked and must survive.
		check(fmt.Sprintf("cut at %d", cut), log[:cut], prefixes[cut/frame])
	}
	for bit := 0; bit < 8*len(log); bit++ {
		damaged := bytes.Clone(log)
		damaged[bit/8] ^= 1 << (bit % 8)
		// The records before the damaged one must survive; it and its
		// successors must not.
		check(fmt.Sprintf("bit %d flipped", bit), damaged, prefixes[bit/8/frame])
	}
	return violations
}

func TestCrashPrefixOracle(t *testing.T) {
	recoverWith := func(verify bool) func([]byte) map[byte]byte {
		return func(log []byte) map[byte]byte {
			s := &kv{m: map[byte]byte{}}
			if _, err := replay(log, s.apply, verify); err != nil {
				return nil
			}
			return s.m
		}
	}
	if n := crashPrefixOracle(t, recoverWith(true)); n != 0 {
		t.Fatalf("%d recoveries were not an acked prefix", n)
	}
	// The planted bug: a replay that trusts frames without comparing
	// their checksum. The oracle is vacuous unless it notices.
	if n := crashPrefixOracle(t, recoverWith(false)); n == 0 {
		t.Fatal("oracle passed a recovery that skips the CRC check")
	} else {
		t.Logf("planted bug caught: %d violations (first few logged above)", n)
	}
}

// TestCrashBetweenCheckpointAndTruncate: the rename happened, the log
// still holds every record the new checkpoint reflects.
func TestCrashBetweenCheckpointAndTruncate(t *testing.T) {
	dir := t.TempDir()
	s, l, err := openKV(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		rec := kvRecord(uint64(i), byte('a'+i%2), byte(i))
		if err := s.apply(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	staleLog, err := os.ReadFile(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(s.snapshot()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, "log"), staleLog, 0o644); err != nil {
		t.Fatal(err)
	}
	got, l, err := openKV(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !reflect.DeepEqual(got.m, s.m) || got.seq != 5 {
		t.Fatalf("recovered %v at seq %d, want %v at 5", got.m, got.seq, s.m)
	}
}

// FuzzWALReplay: arbitrary bytes never panic; what Replay yields is a
// prefix of frames that re-encode to exactly the bytes consumed (so no
// record is invented, reordered or resized); payloads are views into the
// input, never allocations sized by a length field; and replaying the
// valid prefix alone is a fixed point.
func FuzzWALReplay(f *testing.F) {
	good := AppendFrame(AppendFrame(nil, []byte("first")), []byte("second record"))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(append(bytes.Clone(good), 0, 0, 0, 0, 0, 0, 0, 0)) // zero-filled tail
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})     // absurd length
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs [][]byte
		valid, err := Replay(data, func(p []byte) error {
			if len(p) == 0 || len(p) > MaxRecord || len(p) > len(data) {
				t.Fatalf("payload of %d bytes from %d bytes of input", len(p), len(data))
			}
			recs = append(recs, p)
			return nil
		})
		if err != nil || valid < 0 || valid > len(data) {
			t.Fatalf("Replay = %d, %v on %d bytes", valid, err, len(data))
		}
		var re []byte
		for _, r := range recs {
			re = AppendFrame(re, r)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("the %d records replayed do not re-encode to the %d-byte valid prefix", len(recs), valid)
		}
		n := 0
		again, err := Replay(data[:valid], func([]byte) error { n++; return nil })
		if err != nil || again != valid || n != len(recs) {
			t.Fatalf("replaying the valid prefix: %d bytes, %d records, %v; want %d, %d", again, n, err, valid, len(recs))
		}
	})
}

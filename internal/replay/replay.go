// Package replay drives a live EEVFS deployment (the TCP prototype) with a
// trace — the methodology of the paper's prototype evaluation: "the
// implementation uses a trace to replay file access patterns" (Section IV).
//
// Populate creates the trace's files on the cluster; Replay then issues
// the requests with (optionally compressed) inter-arrival pacing and
// collects client-observed response times and buffer-hit counts.
package replay

import (
	"fmt"
	"time"

	"eevfs/internal/fs"
	"eevfs/internal/metrics"
	"eevfs/internal/trace"
)

// Options controls a replay run.
type Options struct {
	// TimeScale compresses the trace's inter-arrival delays: 10 means
	// the replay runs 10x faster than the trace's own clock. <= 0 means
	// "as fast as possible" (no pacing).
	TimeScale float64
	// SizeScale divides the trace's file sizes, so a 10 MB-file trace can
	// be replayed against directories without writing gigabytes. <= 0
	// defaults to 1. Sizes are floored at 1 byte.
	SizeScale int64
}

func (o Options) sizeScale() int64 {
	if o.SizeScale <= 0 {
		return 1
	}
	return o.SizeScale
}

// FileName returns the cluster file name used for a trace file id.
func (o Options) FileName(id int) string {
	return fmt.Sprintf("replay-f%06d.dat", id)
}

// scaledSize returns the on-cluster size for a trace file.
func (o Options) scaledSize(traceSize int64) int64 {
	sz := traceSize / o.sizeScale()
	if sz < 1 {
		sz = 1
	}
	return sz
}

// Result summarizes a replay run.
type Result struct {
	Response      metrics.Summary
	ReadResponse  metrics.Summary
	WriteResponse metrics.Summary
	Reads         int
	Writes        int
	BufferHits    int
	Errors        int
	WallSeconds   float64
}

// HitRatio returns the buffer-disk hit ratio over reads (0 with none).
func (r Result) HitRatio() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.BufferHits) / float64(r.Reads)
}

// Populate creates every file of the trace on the cluster, in file-id
// order (which, for popularity-ranked traces, makes creation order embody
// popularity — Section IV-A). Content is deterministic per file so reads
// can be verified.
func Populate(cl *fs.Client, tr *trace.Trace, opts Options) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	for id, size := range tr.FileSizes {
		data := Content(id, opts.scaledSize(size))
		if err := cl.Create(opts.FileName(id), data); err != nil {
			return fmt.Errorf("replay: creating file %d: %w", id, err)
		}
	}
	return nil
}

// PopulateByPopularity creates the trace's files in descending popularity
// order, the layout step of the paper's process flow (steps 2-3).
func PopulateByPopularity(cl *fs.Client, tr *trace.Trace, opts Options) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	for _, id := range trace.RankByCount(tr.Counts()) {
		data := Content(id, opts.scaledSize(tr.FileSizes[id]))
		if err := cl.Create(opts.FileName(id), data); err != nil {
			return fmt.Errorf("replay: creating file %d: %w", id, err)
		}
	}
	return nil
}

// Content generates the deterministic byte pattern for a file: a rolling
// function of the file id, so corruption and file mix-ups are detectable.
func Content(id int, size int64) []byte {
	data := make([]byte, size)
	x := uint32(id)*2654435761 + 1
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	return data
}

// Verify checks that data matches the deterministic content for id.
func Verify(id int, data []byte) bool {
	want := Content(id, int64(len(data)))
	if len(want) != len(data) {
		return false
	}
	for i := range data {
		if data[i] != want[i] {
			return false
		}
	}
	return true
}

// Replay issues the trace's requests against the cluster with scaled
// pacing and returns client-side measurements. Individual request failures
// are counted, not fatal — a replay against a degraded cluster still
// reports what succeeded.
func Replay(cl *fs.Client, tr *trace.Trace, opts Options) (Result, error) {
	if err := tr.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	var all, reads, writes metrics.Sampler
	start := time.Now()

	for _, rec := range tr.Records {
		if opts.TimeScale > 0 {
			target := time.Duration(rec.TimeS / opts.TimeScale * float64(time.Second))
			if elapsed := time.Since(start); elapsed < target {
				time.Sleep(target - elapsed)
			}
		}
		name := opts.FileName(rec.FileID)
		reqStart := time.Now()
		switch rec.Op {
		case trace.Read:
			data, fromBuffer, err := cl.Read(name)
			if err != nil {
				res.Errors++
				continue
			}
			rt := time.Since(reqStart).Seconds()
			all.Add(rt)
			reads.Add(rt)
			res.Reads++
			if fromBuffer {
				res.BufferHits++
			}
			if !Verify(rec.FileID, data) {
				return Result{}, fmt.Errorf("replay: file %d content corrupted", rec.FileID)
			}
		case trace.Write:
			data := Content(rec.FileID, opts.scaledSize(rec.Size))
			if _, err := cl.Write(name, data); err != nil {
				res.Errors++
				continue
			}
			rt := time.Since(reqStart).Seconds()
			all.Add(rt)
			writes.Add(rt)
			res.Writes++
		}
	}

	res.WallSeconds = time.Since(start).Seconds()
	res.Response = all.Summarize()
	res.ReadResponse = reads.Summarize()
	res.WriteResponse = writes.Summarize()
	return res, nil
}

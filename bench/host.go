package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// canaryLoop is the fixed pure-CPU work one core does per canary round:
// no memory traffic, no syscalls, so its wall time moves only with how
// much of a core the host really gives this process.
func canaryLoop() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// canaryRounds is how many times each core runs the loop; the fastest
// round counts, so a core that was idle a moment ago (clocked down, or
// its vCPU descheduled) has time to wake before it is judged.
const canaryRounds = 4

// host watches the machine the benchmark shares: a CPU canary and the
// hypervisor's steal counter, read around every measured segment.
type host struct {
	procs     int
	fastestMs float64 // fastest canary of the session
	canaries  series  // every canary taken, ms
	steals    series  // steal fraction of every measured segment
	noisy     bool    // a kept segment had a canary > 15 % above fastest
}

func newHost() *host { return &host{procs: runtime.GOMAXPROCS(0)} }

// canary times canaryLoop on one goroutine per core and returns the
// slowest core's fastest round in ms.
func (h *host) canary() float64 {
	var wg sync.WaitGroup
	times := make([]time.Duration, h.procs)
	sums := make([]uint64, h.procs) // keeps the loops' results alive
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < canaryRounds; round++ {
				t0 := time.Now()
				sums[i] += canaryLoop()
				if d := time.Since(t0); round == 0 || d < times[i] {
					times[i] = d
				}
			}
		}(i)
	}
	wg.Wait()
	var worst time.Duration
	for i, d := range times {
		if d > worst {
			worst = d
		}
		sink += int(sums[i] & 1)
	}
	ms := float64(worst) / 1e6
	h.canaries = append(h.canaries, ms)
	if h.fastestMs == 0 || ms < h.fastestMs {
		h.fastestMs = ms
	}
	return ms
}

// quiet reports whether a canary is within 15 % of the session's fastest.
func (h *host) quiet(ms float64) bool { return ms <= 1.15*h.fastestMs }

// measure runs one segment between two host canaries. A segment whose
// canaries ran more than 15 % above the session's fastest is rerun, at
// most twice and only while rerun budget remains; if no attempt was
// quiet, the attempt with the fastest canary is kept and the run is
// marked noisy.
func (h *host) measure(rerunBudget *time.Duration, segment func() segResult) segResult {
	var best segResult
	for attempt := 1; ; attempt++ {
		before := h.canary()
		total0, steal0 := cpuTicks()
		resetPeakRSS()
		seg := segment()
		seg.peakRSSMB = peakRSSMB()
		total1, steal1 := cpuTicks()
		after := h.canary()
		seg.canaryMs = max(before, after)
		if total1 > total0 {
			seg.steal = (steal1 - steal0) / (total1 - total0)
		}
		if attempt == 1 || seg.canaryMs < best.canaryMs {
			best = seg
		}
		if h.quiet(best.canaryMs) {
			break
		}
		if attempt == 3 || *rerunBudget < seg.dur {
			h.noisy = true
			break
		}
		*rerunBudget -= seg.dur
	}
	h.steals = append(h.steals, best.steal)
	return best
}

// cpuTicks reads the aggregate cpu line of /proc/stat: total and steal
// jiffies. Zeroes when the file is unreadable (non-Linux).
func cpuTicks() (total, steal float64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	for i, s := range fields {
		if i == 0 {
			continue // "cpu"
		}
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// cpuTime returns this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS lowers the high-water mark to the current resident size,
// so each measured segment reports its own peak and the figure can be a
// median instead of one maximum over the run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak spans the whole process
}

// memCounters is the part of runtime.MemStats the benchmark differences
// around measured segments.
type memCounters struct {
	mallocs, bytes, pauseNs uint64
	gcs                     uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.TotalAlloc, m.PauseTotalNs, m.NumGC}
}

func (a memCounters) sub(b memCounters) memCounters {
	return memCounters{a.mallocs - b.mallocs, a.bytes - b.bytes, a.pauseNs - b.pauseNs, a.gcs - b.gcs}
}

func (a memCounters) add(b memCounters) memCounters {
	return memCounters{a.mallocs + b.mallocs, a.bytes + b.bytes, a.pauseNs + b.pauseNs, a.gcs + b.gcs}
}

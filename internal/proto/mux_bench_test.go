package proto

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// benchDelay simulates per-request service time at the peer; the
// pipelined connection overlaps the 8 callers' waits. The delay makes the
// number about the mux, not loopback syscall latency.
const benchDelay = 100 * time.Microsecond

const benchCallers = 8

// benchServerV2 answers frames with a goroutine per request, sleeping
// benchDelay, so requests overlap server-side exactly as the fs daemons
// do.
func benchServerV2(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if err := consumePreface(c); err != nil {
					return
				}
				var wmu sync.Mutex
				for {
					t, id, p, err := ReadFrameID(c)
					if err != nil {
						return
					}
					go func() {
						time.Sleep(benchDelay)
						wmu.Lock()
						defer wmu.Unlock()
						WriteFrameID(c, t, id, p)
					}()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// BenchmarkEndpointPipelined: 8 concurrent callers share one multiplexed
// connection with their round trips in flight simultaneously.
func BenchmarkEndpointPipelined(b *testing.B) {
	addr := benchServerV2(b)
	ep := NewEndpoint(addr, nil, TransportConfig{RTTimeout: 5 * time.Second, Retries: 0})
	defer ep.Close()
	payload := []byte("bench-payload")

	b.SetParallelism(benchParallelism())
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := ep.Call(TLookupReq, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchParallelism sizes SetParallelism so RunParallel runs at least
// benchCallers goroutines regardless of GOMAXPROCS (SetParallelism
// multiplies its argument by GOMAXPROCS).
func benchParallelism() int {
	p := benchCallers / runtime.GOMAXPROCS(0)
	if p < 1 {
		return 1
	}
	return p
}

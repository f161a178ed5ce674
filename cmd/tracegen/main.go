// Command tracegen emits synthetic EEVFS traces in the eevfs-trace/1 text
// format, for feeding the simulator or replaying against the TCP
// prototype. Its flags fill one workload.SyntheticConfig; popularity is
// Poisson(-mu), or Zipf(-zipf) over the first -working-set files when
// -working-set is positive (Fig. 6's web-trace equivalent).
//
//	tracegen -mu 1000 -requests 1000 > trace.txt
//	tracegen -working-set 60 -zipf 1.1 > web.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eevfs/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

// run parses args into a workload and writes its trace to w. A malformed
// flag exits the process, as flag.Parse would.
func run(args []string, w io.Writer) error {
	var cfg workload.SyntheticConfig
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	fs.IntVar(&cfg.NumFiles, "files", 1000, "number of files")
	fs.IntVar(&cfg.NumRequests, "requests", 1000, "number of requests")
	sizeMB := fs.Float64("size-mb", 10, "mean file size in MB")
	fs.Float64Var(&cfg.MU, "mu", 1000, "Poisson popularity parameter (not with -working-set)")
	delayMS := fs.Float64("delay-ms", 700, "inter-arrival delay in ms")
	fs.Float64Var(&cfg.WriteFraction, "write-frac", 0, "write fraction")
	fs.IntVar(&cfg.WorkingSet, "working-set", 0, "Zipf popularity over this many hot files (0 = Poisson)")
	fs.Float64Var(&cfg.ZipfS, "zipf", 1.1, "Zipf exponent (with -working-set)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "PRNG seed")
	fs.Parse(args)
	cfg.MeanSize = int64(*sizeMB * 1e6)
	cfg.InterArrival = *delayMS / 1000

	// The popularity model not chosen drops its flag's default; naming
	// its flag explicitly is an error, which Validate reports.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if cfg.WorkingSet > 0 && !set["mu"] {
		cfg.MU = 0
	}
	if cfg.WorkingSet == 0 && !set["zipf"] {
		cfg.ZipfS = 0
	}

	tr, err := workload.Synthetic(cfg)
	if err != nil {
		return err
	}
	return tr.Write(w)
}

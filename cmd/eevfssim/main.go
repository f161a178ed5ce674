// Command eevfssim is the deterministic-simulation soak runner: it
// generates randomized cluster scenarios from a base seed, checks every
// invariant oracle against each one, and on failure shrinks the scenario
// to a minimal reproducer and prints a one-line replay command.
//
// Usage:
//
//	eevfssim -seed=1 -n=200            # 200 scenarios from seed 1
//	eevfssim -duration=10m             # soak until the clock runs out
//	eevfssim -repro='v1,seed=42,...'   # replay one encoded scenario
//	eevfssim -repro='live,v1,seed=3'   # replay one live TCP-stack scenario
//	eevfssim -live=20                  # every 20th iteration: real TCP stack
//	eevfssim -live-failover=200        # N kill-the-primary failover scenarios
//	eevfssim -drift=200                # N adaptive-vs-NPF drift scenarios
//
// Exit status is 0 when every scenario upholds every oracle, 1 on any
// failure, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eevfs/internal/simtest"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "base seed; scenario i uses seed+i")
		n        = flag.Int("n", 200, "number of scenarios to run")
		duration = flag.Duration("duration", 0, "run until this much wall time has passed (overrides -n)")
		repro    = flag.String("repro", "", "replay one encoded scenario (from a previous failure) and exit")
		live     = flag.Int("live", 0, "every N-th iteration, also run a live TCP-stack scenario (0 = never)")
		failover = flag.Int("live-failover", 0, "run N live scenarios with a replicated server group and a forced primary kill, then exit (0 = disabled)")
		drift    = flag.Int("drift", 0, "run N adaptive-arm drift scenarios (every one exercises the adaptive oracles), then exit (0 = disabled)")
		out      = flag.String("out", "", "append failing repro commands to this file")
		verbose  = flag.Bool("v", false, "log every scenario, not just failures")
	)
	flag.Parse()

	if *repro != "" {
		os.Exit(replay(*repro))
	}

	var outFile *os.File
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eevfssim: %v\n", err)
			os.Exit(2)
		}
		outFile = f
	}

	kind, count := "", *n
	switch {
	case *failover > 0:
		kind, count = "failover", *failover
	case *drift > 0:
		kind, count = "drift", *drift
	}
	// The soak loop itself may use wall time (-duration is an operator
	// budget, not part of any scenario); each scenario's behavior depends
	// only on its seed. The two batteries run their count.
	deadline := time.Time{}
	if *duration > 0 && kind == "" {
		deadline = time.Now().Add(*duration)
	}
	code := soak(kind, *seed, count, deadline, *live, *verbose, outFile)
	if outFile != nil {
		outFile.Close()
	}
	os.Exit(code)
}

// soak is the one seed loop. Iteration i checks the scenario of kind
// drawn from seed+i: for "" (the general soak) a simulator scenario and,
// every live-th iteration, a live TCP-stack one too; for "failover" a
// live replicated group whose primary is killed mid-run; for "drift" an
// adaptive-arm drift scenario, held to the adaptive oracles. It runs n
// iterations, or until deadline when that is set, prints one summary,
// and returns the exit status: 1 on any failure.
func soak(kind string, seed uint64, n int, deadline time.Time, live int, verbose bool, outFile *os.File) int {
	failures, ran := 0, 0
	start := time.Now()
	for i := 0; ; i++ {
		if deadline.IsZero() && i >= n || !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		ran++
		s := seed + uint64(i)
		switch kind {
		case "failover":
			ls := simtest.GenerateLive(s)
			ls.Servers = 2 + i%2 // alternate 2- and 3-member groups
			ls.KillPrimary = true
			if verbose {
				fmt.Printf("failover seed=%d nodes=%d ops=%d srv=%d rs=%v\n", ls.Seed, ls.Nodes, ls.Ops, ls.Servers, ls.RestartServer)
			}
			if !runLive(ls, outFile) {
				failures++
			}
		case "drift":
			if !runSim("drift", simtest.GenerateDrift(s), verbose, outFile) {
				failures++
			}
		default:
			if !runSim("run ", simtest.Generate(s), verbose, outFile) {
				failures++
			}
			if live > 0 && i%live == 0 {
				ls := simtest.GenerateLive(s)
				if verbose {
					fmt.Printf("live seed=%d nodes=%d ops=%d kill=%d srv=%d kp=%v rs=%v\n",
						ls.Seed, ls.Nodes, ls.Ops, ls.KillNode, ls.Servers, ls.KillPrimary, ls.RestartServer)
				}
				if !runLive(ls, outFile) {
					failures++
				}
			}
		}
	}
	if kind != "" {
		kind += " "
	}
	fmt.Printf("eevfssim: %d %sscenarios, %d failures, %s\n", ran, kind, failures, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		return 1
	}
	return 0
}

// replay decodes and re-checks one scenario — simulator or live,
// distinguished by the "live," prefix — printing the verdict.
func replay(encoded string) int {
	if simtest.IsLiveRepro(encoded) {
		ls, err := simtest.DecodeLiveScenario(encoded)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eevfssim: %v\n", err)
			return 2
		}
		if f := checkLiveTmp(ls); f != nil {
			fmt.Printf("FAIL oracle=%s seed=%d: %s\n", f.Oracle, ls.Seed, f.Msg)
			return 1
		}
		fmt.Printf("PASS live seed=%d: all oracles hold\n", ls.Seed)
		return 0
	}
	s, err := simtest.DecodeScenario(encoded)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eevfssim: %v\n", err)
		return 2
	}
	if f := simtest.Check(s); f != nil {
		fmt.Printf("FAIL oracle=%s seed=%d: %s\n", f.Oracle, s.Seed, f.Msg)
		return 1
	}
	fmt.Printf("PASS seed=%d: all oracles hold\n", s.Seed)
	return 0
}

// checkLiveTmp runs one live scenario in a throwaway scratch directory.
func checkLiveTmp(ls simtest.LiveScenario) *simtest.Failure {
	dir, err := os.MkdirTemp("", "eevfssim-live-")
	if err != nil {
		return &simtest.Failure{Oracle: "setup", Msg: err.Error()}
	}
	defer os.RemoveAll(dir)
	return simtest.CheckLive(ls, dir)
}

// runLive checks one live scenario and, on failure, shrinks it to a
// minimal same-oracle reproducer before printing the one-line repro.
// It reports whether the scenario passed.
func runLive(ls simtest.LiveScenario, outFile *os.File) bool {
	f := checkLiveTmp(ls)
	if f == nil {
		return true
	}
	min := simtest.ShrinkLive(ls, f, checkLiveTmp)
	line := fmt.Sprintf("FAIL live oracle=%s seed=%d (shrunk %d->%d ops in %d runs): %s\n  repro: %s",
		min.Failure.Oracle, ls.Seed, ls.Ops, min.Scenario.Ops, min.Runs,
		min.Failure.Msg, simtest.LiveReproCommand(min.Scenario))
	fmt.Println(line)
	if outFile != nil {
		fmt.Fprintln(outFile, line)
	}
	return false
}

// runSim checks one simulator scenario and, on failure, shrinks it to a
// minimal same-oracle reproducer before printing the one-line repro. It
// reports whether the scenario passed.
func runSim(label string, s simtest.Scenario, verbose bool, outFile *os.File) bool {
	if verbose {
		fmt.Printf("%s seed=%d %s\n", label, s.Seed, s.Encode())
	}
	f := simtest.Check(s)
	if f == nil {
		return true
	}
	min := simtest.Shrink(s, f, simtest.Check)
	line := fmt.Sprintf("FAIL oracle=%s seed=%d (shrunk %d->%d requests in %d runs): %s\n  repro: %s",
		min.Failure.Oracle, s.Seed, s.Requests, min.Scenario.Requests, min.Runs,
		min.Failure.Msg, simtest.ReproCommand(min.Scenario))
	fmt.Println(line)
	if outFile != nil {
		fmt.Fprintln(outFile, line)
	}
	return false
}

package simtest

import (
	"os"
	"testing"

	"eevfs/internal/simtest/leak"
)

// TestLiveScenario runs one seeded chaos scenario against the real
// fs.Server/Node TCP stack and checks the metadata-consistency oracle.
// Seed 1 mixes writes and injected latency; seed 20 additionally kills
// and restarts a node mid-run, exercising the degraded path.
func TestLiveScenario(t *testing.T) {
	leak.Check(t)
	seeds := []uint64{1, 20}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		s := GenerateLive(seed)
		t.Logf("live seed=%d nodes=%d files=%d ops=%d writes=%d%% latency=%dms k=%d kill=%d srv=%d kp=%v rs=%v",
			s.Seed, s.Nodes, s.Files, s.Ops, s.WritePct, s.LatencyMS, s.PrefetchK, s.KillNode, s.Servers, s.KillPrimary, s.RestartServer)
		if f := CheckLive(s, t.TempDir()); f != nil {
			t.Errorf("seed %d: %v", seed, f)
		}
	}
}

// TestLiveFailoverScenario is the headline kill-the-primary run: a
// replicated 3-server group loses its primary mid-op-stream and every
// oracle — typed errors only, promotion, replica convergence, node
// ground truth — must still hold. The 200-seed battery of these rides
// the soak runner (make soak-failover); this pins two seeds in CI.
func TestLiveFailoverScenario(t *testing.T) {
	leak.Check(t)
	seeds := []uint64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		s := GenerateLive(seed)
		s.Servers = 3
		s.KillPrimary = true
		if f := CheckLive(s, t.TempDir()); f != nil {
			t.Errorf("seed %d: %v\n  repro: %s", seed, f, LiveReproCommand(s))
		}
	}
}

// TestLiveServerRestartScenario: a metadata server stopped mid-run comes
// back from its state file (checkpoint + op log). Standalone, it must
// still hold every file it acked; in a group, the killed primary must
// rejoin as a follower and converge on its successor's namespace.
func TestLiveServerRestartScenario(t *testing.T) {
	leak.Check(t)
	for _, servers := range []int{1, 3} {
		s := GenerateLive(5)
		s.Servers = servers
		s.KillPrimary = servers > 1
		s.RestartServer = true
		if s.WritePct == 0 {
			s.WritePct = 30
		}
		if f := CheckLive(s, t.TempDir()); f != nil {
			t.Errorf("servers=%d: %v\n  repro: %s", servers, f, LiveReproCommand(s))
		}
	}
}

// TestLiveShrinkInjectedDivergence proves the convergence proof is not
// vacuous: with the silent-replication bug injected, the oracle must
// catch the lost mutation, and the shrinker must reduce the scenario
// while reproducing the *same* oracle failure.
func TestLiveShrinkInjectedDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("live shrink runs many real TCP clusters")
	}
	leak.Check(t)
	s := GenerateLive(7)
	s.Servers = 2
	s.KillPrimary = true
	s.Inject = "silent-replication"
	check := func(c LiveScenario) *Failure {
		dir, err := os.MkdirTemp("", "live-shrink-")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		return CheckLive(c, dir)
	}
	fail := check(s)
	if fail == nil {
		t.Fatal("silent-replication injection produced no failure: the convergence oracle is vacuous")
	}
	res := ShrinkLive(s, fail, check)
	if res.Failure.Oracle != fail.Oracle {
		t.Fatalf("shrinker drifted from oracle %s to %s", fail.Oracle, res.Failure.Oracle)
	}
	if res.Scenario.Ops > s.Ops || res.Scenario.Files > s.Files {
		t.Fatalf("shrinker grew the scenario: %+v", res.Scenario)
	}
	if !res.Scenario.KillPrimary || res.Scenario.Servers < 2 || res.Scenario.Inject == "" {
		t.Fatalf("shrinker dropped an ingredient the failure needs: %+v", res.Scenario)
	}
	t.Logf("shrunk ops %d->%d files %d->%d in %d runs; repro: %s",
		s.Ops, res.Scenario.Ops, s.Files, res.Scenario.Files, res.Runs, LiveReproCommand(res.Scenario))
}

// TestGenerateLiveDeterministic: the op plan must derive from the seed.
func TestGenerateLiveDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		seed := uint64(500 + i)
		a, b := GenerateLive(seed), GenerateLive(seed)
		if a != b {
			t.Fatalf("seed %d: GenerateLive is not deterministic: %+v vs %+v", seed, a, b)
		}
		if a.Nodes < 2 || a.Files < 3 || a.Ops < 10 {
			t.Fatalf("seed %d: degenerate live scenario %+v", seed, a)
		}
		if a.KillNode >= a.Nodes {
			t.Fatalf("seed %d: kill target %d out of range", seed, a.KillNode)
		}
		if a.Servers < 1 || a.Servers > 3 {
			t.Fatalf("seed %d: server count %d out of range", seed, a.Servers)
		}
		if a.KillPrimary && a.Servers < 2 {
			t.Fatalf("seed %d: kill-primary with %d servers", seed, a.Servers)
		}
		if a.RestartServer && a.Servers > 1 && !a.KillPrimary {
			t.Fatalf("seed %d: restart-server in a group without a killed primary", seed)
		}
		if a.Inject != "" {
			t.Fatalf("seed %d: generation set an injection: %+v", seed, a)
		}
	}
}

// TestLiveReproRoundTrip: the live codec must round-trip every field,
// including the sentinel defaults (KillNode -1, Servers 1).
func TestLiveReproRoundTrip(t *testing.T) {
	cases := []LiveScenario{
		GenerateLive(1),
		GenerateLive(20),
		{Seed: 9, Nodes: 2, Files: 1, Ops: 1, KillNode: -1, Servers: 1},
		{Seed: 42, Nodes: 3, Files: 4, Ops: 12, WritePct: 30, LatencyMS: 2,
			PrefetchK: 2, KillNode: 0, Servers: 3, KillPrimary: true, RestartServer: true, Inject: "silent-replication"},
	}
	for _, want := range cases {
		enc := want.Encode()
		if !IsLiveRepro(enc) {
			t.Fatalf("%q not recognized as live repro", enc)
		}
		got, err := DecodeLiveScenario(enc)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		if got != want {
			t.Fatalf("round trip %q: %+v != %+v", enc, got, want)
		}
	}
	// A simulator repro must not be mistaken for a live one.
	if IsLiveRepro(Scenario{Seed: 1}.Encode()) {
		t.Fatal("simulator repro classified as live")
	}
	if _, err := DecodeLiveScenario("v1,seed=1"); err == nil {
		t.Fatal("decoding a simulator repro as live should fail")
	}
}

// Package cluster implements the discrete-event simulation of a complete
// EEVFS deployment: clients replaying a trace against a storage server
// that routes requests to storage nodes, each of which manages a buffer
// disk and several data disks with power management (Sections III and IV
// of the paper).
//
// This simulator is the substitution for the paper's physical testbed: the
// published metrics (energy, power-state transitions, response time) are
// all functions of when each disk is busy, idle, or asleep, and the
// simulator derives those timings from first principles — network and disk
// queueing, spin-up latencies, and the prefetch plan.
package cluster

import (
	"fmt"

	"eevfs/internal/adaptive"
	"eevfs/internal/disk"
	"eevfs/internal/telemetry"
)

// NodeConfig describes one storage node.
type NodeConfig struct {
	// LinkMbps is the node NIC capacity in megabits per second
	// (Table I: 1000 for Type 1, 100 for Type 2).
	LinkMbps float64
	// DataModel is the drive model of the node's data disks.
	DataModel disk.Model
	// BufferModel is the drive model of the node's buffer disk (the
	// paper's prototype reuses the OS disk).
	BufferModel disk.Model
	// DataDisks is the number of data disks (must currently be uniform
	// across nodes; the popularity round-robin depends on it).
	DataDisks int
	// BufferDisks is the number of buffer disks m (Section I: "each
	// storage node contains m buffer disks and n data disks"; the
	// prototype used m = 1). Zero means 1. Files hash across the buffer
	// disks by id.
	BufferDisks int
}

// Policy is the power-management arm a simulated run applies. Exactly
// one arm runs; the zero value is the paper's NPF baseline.
type Policy uint8

const (
	// AlwaysOn is the paper's NPF: no buffer-disk copies, no sleeps.
	AlwaysOn Policy = iota
	// ThresholdDPM is classic DPM (Section II): no copies, and a data
	// disk idle for IdleThresholdSec spins down.
	ThresholdDPM
	// Prefetch copies the popular files to the buffer disks up front
	// (EEVFS's prefetch phase), and data disks sleep on the idle-threshold
	// timer.
	Prefetch
	// MAID is cache-on-access (Colarelli & Grunwald, Section II): the
	// buffer disk caches files in LRU order after each miss, and data
	// disks sleep on the idle-threshold timer.
	MAID
	// Adaptive is the online arm: it starts exactly like NPF, adapts
	// each data disk's spin-down threshold under a hard per-window
	// transition budget, and re-prefetches when the hot set churns.
	Adaptive
	// PrefetchHinted is the paper's PF (Section IV-C): Prefetch's phase,
	// then application hints — the predicted access pattern — sleep each
	// data disk at the start of every predicted idle window.
	PrefetchHinted
	// PrefetchPrewake is PrefetchHinted that also spins a sleeping disk
	// up SpinUpSec before its next predicted access, hiding the wake
	// latency from clients. The paper's prototype woke disks on demand
	// (its measured response-time penalties come from spin-ups), so this
	// is the X2 ablation, not the default.
	PrefetchPrewake
)

var policyNames = [...]string{
	AlwaysOn: "npf", ThresholdDPM: "dpm", Prefetch: "pf", MAID: "maid", Adaptive: "adaptive",
	PrefetchHinted: "pf-hints", PrefetchPrewake: "pf-prewake",
}

// Prefetches reports whether the policy is one of the PF family, the arms
// that run the up-front prefetch phase.
func (p Policy) Prefetches() bool {
	return p == Prefetch || p == PrefetchHinted || p == PrefetchPrewake
}

// String returns the policy's short name, as repro strings spell it.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Config describes a full simulated deployment plus the EEVFS policy
// under test.
type Config struct {
	Nodes []NodeConfig

	// NodeBasePowerW is the constant non-disk power draw of one storage
	// node (CPU, RAM, NIC, fans). The paper measured whole-node wall
	// power; this constant is what makes the simulated totals comparable
	// in magnitude.
	NodeBasePowerW float64

	// IdleThresholdSec is Table II's "Disk Idle Threshold": the minimum
	// predicted (or observed) idle period before a data disk is sent to
	// standby. The paper fixes it at 5 s.
	IdleThresholdSec float64

	// Policy is the power-management arm under test: PF against NPF in
	// the figures, and the baselines next to them. The zero value,
	// AlwaysOn, is the paper's NPF.
	Policy Policy

	// PrefetchCount is Table II's "Number of Files to Prefetch" (K),
	// a global budget taken from the top of the popularity ranking.
	PrefetchCount int

	// WriteBuffer uses free buffer-disk space as a write buffer for the
	// data disks (Section III-C). Writes are acknowledged after the
	// sequential log append and flushed to their data disk lazily.
	// Requires a PF-family policy: no other arm buffers writes.
	WriteBuffer bool

	// BufferCapacityBytes bounds buffer-disk occupancy (prefetched copies
	// plus unflushed writes). Zero means bounded only by the drive's
	// nominal capacity.
	BufferCapacityBytes int64

	// RouteLatencySec is the client -> server -> node control-path
	// latency per request (metadata lookup plus two small messages).
	RouteLatencySec float64

	// Concentrate replaces the popularity round-robin with PDC-style
	// placement (Pinheiro & Bianchini, Section II): the most popular
	// files concentrated on the first disks so the remaining disks can
	// sleep. Usually combined with ThresholdDPM.
	Concentrate bool

	// StripeChunkBytes stripes every file across the node's data disks in
	// chunks of this size (the paper's Section VII future work:
	// "striping techniques within EEVFS that can help improve the
	// performance ... while still maintaining energy savings"). Zero
	// keeps whole-file placement. Striping parallelizes data-disk reads
	// (lower response time) at the cost of spreading residual load over
	// more spindles (shorter idle windows).
	StripeChunkBytes int64

	// ReprefetchEvery re-runs the popularity analysis every N replayed
	// requests, using the accesses observed so far, and refreshes the
	// buffer-disk contents (PRE-BUD's "dynamically fetch the most
	// popular data"). Zero keeps the single up-front prefetch the
	// paper's prototype used. Requires the Prefetch policy: the hinted
	// arms' plans assume the static prefetch.
	ReprefetchEvery int

	// AdaptiveParams tunes the Adaptive policy; nil means adaptive.Defaults.
	AdaptiveParams *adaptive.Params

	// Journal, when non-nil, receives the structured event timeline of
	// the run: every disk power-state transition, every disk service
	// (with queue wait), and every client-visible request, all stamped
	// with simulated time — so runs stay deterministic. Export it with
	// telemetry.WriteChromeTrace for a Perfetto-loadable timeline.
	Journal *telemetry.Journal
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: no storage nodes")
	}
	disks := c.Nodes[0].DataDisks
	for i, n := range c.Nodes {
		if n.LinkMbps <= 0 {
			return fmt.Errorf("cluster: node %d link %g Mb/s", i, n.LinkMbps)
		}
		if n.DataDisks <= 0 {
			return fmt.Errorf("cluster: node %d has %d data disks", i, n.DataDisks)
		}
		if n.DataDisks != disks {
			return fmt.Errorf("cluster: heterogeneous data-disk counts (%d vs %d) are not supported", n.DataDisks, disks)
		}
		if n.BufferDisks < 0 {
			return fmt.Errorf("cluster: node %d has %d buffer disks", i, n.BufferDisks)
		}
		if err := n.DataModel.Validate(); err != nil {
			return fmt.Errorf("cluster: node %d data disk: %w", i, err)
		}
		if err := n.BufferModel.Validate(); err != nil {
			return fmt.Errorf("cluster: node %d buffer disk: %w", i, err)
		}
	}
	switch {
	case c.NodeBasePowerW < 0:
		return fmt.Errorf("cluster: negative node base power")
	case c.IdleThresholdSec <= 0:
		return fmt.Errorf("cluster: idle threshold must be positive")
	case c.PrefetchCount < 0:
		return fmt.Errorf("cluster: negative PrefetchCount")
	case c.BufferCapacityBytes < 0:
		return fmt.Errorf("cluster: negative BufferCapacityBytes")
	case c.RouteLatencySec < 0:
		return fmt.Errorf("cluster: negative RouteLatencySec")
	case c.Policy > PrefetchPrewake:
		return fmt.Errorf("cluster: unknown policy %v", c.Policy)
	case c.WriteBuffer && !c.Policy.Prefetches():
		return fmt.Errorf("cluster: WriteBuffer requires a PF-family policy, not %v", c.Policy)
	case c.StripeChunkBytes < 0:
		return fmt.Errorf("cluster: negative StripeChunkBytes")
	case c.ReprefetchEvery < 0:
		return fmt.Errorf("cluster: negative ReprefetchEvery")
	case c.ReprefetchEvery > 0 && c.Policy != Prefetch:
		return fmt.Errorf("cluster: ReprefetchEvery requires the %v policy, not %v", Prefetch, c.Policy)
	case c.Policy == Adaptive && c.Concentrate:
		return fmt.Errorf("cluster: the Adaptive policy takes no Concentrate")
	case c.AdaptiveParams != nil && c.Policy != Adaptive:
		return fmt.Errorf("cluster: AdaptiveParams set without the Adaptive policy")
	}
	if c.AdaptiveParams != nil {
		if err := c.AdaptiveParams.Validate(); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	return nil
}

// DataDisksPerNode returns the uniform per-node data-disk count.
func (c Config) DataDisksPerNode() int {
	if len(c.Nodes) == 0 {
		return 0
	}
	return c.Nodes[0].DataDisks
}

// DefaultTestbed returns the simulated equivalent of Table I: eight
// storage nodes — four Type 1 (1 Gb/s NIC, 58 MB/s disks) and four Type 2
// (100 Mb/s NIC, 34 MB/s disks) — each with one buffer disk and two data
// disks, 5 s idle threshold, the hinted PF arm and K = 70.
func DefaultTestbed() Config {
	nodes := make([]NodeConfig, 8)
	for i := range nodes {
		if i < 4 {
			nodes[i] = NodeConfig{
				LinkMbps:    1000,
				DataModel:   disk.ModelType1,
				BufferModel: disk.ModelType1,
				DataDisks:   2,
			}
		} else {
			nodes[i] = NodeConfig{
				LinkMbps:    100,
				DataModel:   disk.ModelType2,
				BufferModel: disk.ModelType2,
				DataDisks:   2,
			}
		}
	}
	return Config{
		Nodes:            nodes,
		NodeBasePowerW:   55,
		IdleThresholdSec: 5,
		Policy:           PrefetchHinted,
		PrefetchCount:    70,
		RouteLatencySec:  0.001,
	}
}

// NPF returns a copy of the configuration with prefetching (and therefore
// power management) disabled — the paper's NPF comparison arm. The options
// of other arms go too: Concentrate would change the run, the rest would
// fail validation here or in AdaptiveArm, and PrefetchCount is read only
// by the PF family, so NPF arms built from configs that differ only in K
// are equal.
func (c Config) NPF() Config {
	c.Policy, c.Concentrate, c.WriteBuffer = AlwaysOn, false, false
	c.ReprefetchEvery, c.AdaptiveParams, c.PrefetchCount = 0, nil, 0
	return c
}

// AdaptiveArm returns a copy of the configuration running the online
// adaptive policy.
func (c Config) AdaptiveArm() Config {
	c = c.NPF()
	c.Policy = Adaptive
	return c
}

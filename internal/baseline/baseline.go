// Package baseline assembles the comparison systems discussed in
// Section II of the paper so that the experiments can answer "EEVFS
// versus what?":
//
//   - AlwaysOn: no power management at all (the paper's NPF arm).
//   - ThresholdDPM: classic dynamic power management — disks spin down
//     after a fixed idle threshold, no prefetching (Benini et al. [14]).
//   - MAID: a buffer disk used as an LRU cache populated on access
//     (Colarelli & Grunwald [4]); storage-system level, no future
//     knowledge, threshold-timer sleeping.
//   - PDC: popular data concentration — popular files migrated to the
//     first disks so later disks can sleep (Pinheiro & Bianchini [15]);
//     modeled as concentrated placement plus threshold DPM. The paper's
//     criticism (migration energy, whole-system metadata) is discussed in
//     DESIGN.md; the migration itself is assumed already done, which is
//     generous to PDC.
//   - LowPower: every drive replaced with a 5400-rpm low-power model, no
//     power management — the "replace the disks" alternative (Song [20])
//     whose weakness, per the paper, is that it trades away performance.
//   - EEVFS: the paper's system — popularity prefetch into buffer disks,
//     hint-driven predictive sleeping.
package baseline

import (
	"fmt"
	"slices"

	"eevfs/internal/cluster"
	"eevfs/internal/disk"
)

// Name identifies a comparison system.
type Name string

// The comparator set.
const (
	AlwaysOn     Name = "always-on"
	ThresholdDPM Name = "threshold-dpm"
	MAID         Name = "maid-lru"
	PDC          Name = "pdc-concentrate"
	LowPower     Name = "lowpower-disks"
	EEVFS        Name = "eevfs-prefetch"
)

// All lists every comparator in presentation order.
var All = []Name{AlwaysOn, ThresholdDPM, MAID, PDC, LowPower, EEVFS}

// Configure derives the comparator's cluster configuration from a base
// EEVFS configuration (the base's testbed shape, thresholds, and prefetch
// depth are reused).
func Configure(base cluster.Config, n Name) (cluster.Config, error) {
	switch n {
	case AlwaysOn:
		return base.NPF(), nil
	case ThresholdDPM:
		c := base.NPF()
		c.Policy = cluster.ThresholdDPM
		return c, nil
	case MAID:
		c := base.NPF()
		c.Policy = cluster.MAID
		return c, nil
	case PDC:
		c := base.NPF()
		c.Concentrate = true
		c.Policy = cluster.ThresholdDPM
		return c, nil
	case LowPower:
		c := base.NPF()
		c.Nodes = slices.Clone(c.Nodes) // base's array is the caller's
		for i := range c.Nodes {
			c.Nodes[i].DataModel = disk.ModelLowPower
			c.Nodes[i].BufferModel = disk.ModelLowPower
		}
		return c, nil
	case EEVFS:
		c := base
		if !c.Policy.Prefetches() {
			c.Policy = cluster.Prefetch
		}
		c.Concentrate = false
		if c.PrefetchCount == 0 {
			c.PrefetchCount = 70
		}
		return c, nil
	default:
		return cluster.Config{}, fmt.Errorf("baseline: unknown comparator %q", n)
	}
}

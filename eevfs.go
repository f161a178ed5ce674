// Package eevfs is a reproduction of "Energy Efficient Prefetching with
// Buffer Disks for Cluster File Systems" (Manzanares et al., ICPP 2010):
// an energy-efficient virtual file system for cluster storage that places
// data by popularity, prefetches hot files into always-on buffer disks,
// and transitions lightly-loaded data disks into standby.
//
// The package exposes three layers:
//
//   - The cluster simulator (Simulate, DefaultTestbed): a deterministic
//     discrete-event model of the paper's 8-node testbed that regenerates
//     every published figure. This substitutes for the paper's physical
//     power-measured cluster; see DESIGN.md for the substitution argument.
//
//   - The workload generator (SyntheticWorkload): the Poisson-MU
//     popularity traces of Table II and, from DefaultWebConfig, the
//     web-trace equivalent of Fig. 6.
//
//   - The TCP prototype (StartServer, StartNode, Dial): a real
//     distributed file system with a storage server, storage-node
//     daemons whose disks are directories driven by the same power
//     models, and a client library.
//
// Quick start:
//
//	tr, _ := eevfs.SyntheticWorkload(eevfs.DefaultSyntheticConfig())
//	pf, _ := eevfs.Simulate(eevfs.DefaultTestbed(), tr)
//	npf, _ := eevfs.Simulate(eevfs.DefaultTestbed().NPF(), tr)
//	fmt.Printf("energy savings: %.1f%%\n", pf.EnergySavingsVs(npf))
package eevfs

import (
	"eevfs/internal/adaptive"
	"eevfs/internal/baseline"
	"eevfs/internal/cluster"
	"eevfs/internal/disk"
	"eevfs/internal/experiments"
	"eevfs/internal/fs"
	"eevfs/internal/proto"
	"eevfs/internal/replay"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// Simulation layer.
type (
	// SimConfig configures a simulated cluster run (policies + testbed).
	SimConfig = cluster.Config
	// SimNodeConfig describes one simulated storage node.
	SimNodeConfig = cluster.NodeConfig
	// SimPolicy is the power-management arm of a run (SimConfig.Policy).
	SimPolicy = cluster.Policy
	// SimResult carries one run's measurements: energy, transitions,
	// response times, hit ratios.
	SimResult = cluster.Result
)

// The simulated policy arms; the zero value is the paper's NPF.
const (
	SimAlwaysOn        = cluster.AlwaysOn
	SimThresholdDPM    = cluster.ThresholdDPM
	SimPrefetch        = cluster.Prefetch
	SimMAID            = cluster.MAID
	SimAdaptive        = cluster.Adaptive
	SimPrefetchHinted  = cluster.PrefetchHinted
	SimPrefetchPrewake = cluster.PrefetchPrewake
)

// DefaultTestbed returns the simulated equivalent of the paper's Table I
// testbed (8 storage nodes, 1 buffer + 2 data disks each, K=70, the
// hinted PF arm).
func DefaultTestbed() SimConfig { return cluster.DefaultTestbed() }

// Simulate runs one deterministic cluster simulation of the trace.
func Simulate(cfg SimConfig, tr *Trace) (SimResult, error) { return cluster.Run(cfg, tr) }

// Workload layer.
type (
	// Trace is an ordered file-request stream plus per-file sizes.
	Trace = trace.Trace
	// TraceRecord is one request in a Trace.
	TraceRecord = trace.Record
	// SyntheticConfig parameterizes the Table II synthetic workloads,
	// the Fig. 6 web-trace equivalent, and their drift — phase rotation,
	// flash crowds, and diurnal load — behind the adaptive policy
	// experiments.
	SyntheticConfig = workload.SyntheticConfig
	// AdaptivePolicyParams tunes the online adaptive power-management
	// arm (SimConfig.AdaptiveArm): EWMA gap estimation, adapted
	// spin-down thresholds, transition budget, and churn-triggered
	// re-prefetch.
	AdaptivePolicyParams = adaptive.Params
)

// DefaultSyntheticConfig returns the paper's default workload point
// (1000 files, 1000 requests, 10 MB, MU=1000, 700 ms inter-arrival).
func DefaultSyntheticConfig() SyntheticConfig { return workload.DefaultSynthetic() }

// SyntheticWorkload generates a synthetic trace, drifting or not.
func SyntheticWorkload(cfg SyntheticConfig) (*Trace, error) { return workload.Synthetic(cfg) }

// DefaultWebConfig returns the Fig. 6 web-trace-equivalent workload
// point (Zipf 1.1 over a 60-file working set of 1000 files).
func DefaultWebConfig() SyntheticConfig { return workload.DefaultWeb() }

// DefaultDriftConfig returns the strong-drift workload point of the
// ext-adaptive experiments (16 phase hot sets over 1600 files).
func DefaultDriftConfig() SyntheticConfig { return workload.DefaultDrift() }

// DefaultAdaptivePolicyParams returns the tuned production parameter set
// for the adaptive policy arm.
func DefaultAdaptivePolicyParams() AdaptivePolicyParams { return adaptive.Defaults() }

// Disk models.
type (
	// DiskModel holds one drive type's performance and power parameters.
	DiskModel = disk.Model
)

// Drive parameter sets for the testbed's drive types (Table I).
var (
	DiskModelType1 = disk.ModelType1
	DiskModelType2 = disk.ModelType2
)

// TCP prototype layer.
type (
	// ServerConfig configures the storage-server daemon.
	ServerConfig = fs.ServerConfig
	// NodeConfig configures a storage-node daemon.
	NodeConfig = fs.NodeConfig
	// ClientConfig configures a client's transport (timeouts, retries).
	ClientConfig = fs.ClientConfig
	// TransportConfig bounds and retries every round trip on a
	// connection (dial/round-trip timeouts, retry backoff).
	TransportConfig = proto.TransportConfig
	// HealthConfig tunes the server's node failure detection and
	// background health probing.
	HealthConfig = fs.HealthConfig
	// Server is a running storage-server daemon.
	Server = fs.Server
	// Node is a running storage-node daemon.
	Node = fs.Node
	// Client talks to a server for metadata and to nodes for data.
	Client = fs.Client
)

// Typed failure sentinels from the prototype's network path; check with
// errors.Is against any client-returned error.
var (
	// ErrNodeUnavailable: the file's storage node is partitioned,
	// crashed, or repeatedly timing out.
	ErrNodeUnavailable = fs.ErrNodeUnavailable
	// ErrFileNotFound: the name is not in the server's namespace.
	ErrFileNotFound = fs.ErrFileNotFound
)

// StartServer launches the storage-server daemon.
func StartServer(cfg ServerConfig) (*Server, error) { return fs.StartServer(cfg) }

// StartNode launches a storage-node daemon.
func StartNode(cfg NodeConfig) (*Node, error) { return fs.StartNode(cfg) }

// Dial connects a client to a storage server with default transport
// settings.
func Dial(serverAddr string) (*Client, error) { return fs.Dial(serverAddr) }

// DialConfig connects a client with explicit timeout/retry settings.
func DialConfig(serverAddr string, cfg ClientConfig) (*Client, error) {
	return fs.DialConfig(serverAddr, cfg)
}

// Experiments layer.
type (
	// ExperimentOptions scales and seeds a regenerated experiment.
	ExperimentOptions = experiments.Options
	// ExperimentTable is a rendered table/figure artifact.
	ExperimentTable = experiments.Table
)

// ExperimentIDs lists every regenerable table and figure.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one table or figure by id (e.g. "fig3a").
func RunExperiment(id string, o ExperimentOptions) (ExperimentTable, error) {
	return experiments.Run(id, o)
}

// BaselineName identifies a comparison system (MAID, PDC, ...).
type BaselineName = baseline.Name

// The comparator set from Section II of the paper.
var (
	BaselineAlwaysOn     = baseline.AlwaysOn
	BaselineThresholdDPM = baseline.ThresholdDPM
	BaselineMAID         = baseline.MAID
	BaselinePDC          = baseline.PDC
	BaselineEEVFS        = baseline.EEVFS
)

// ConfigureBaseline derives a comparator's simulated configuration from
// a base EEVFS configuration; Simulate runs it.
func ConfigureBaseline(base SimConfig, n BaselineName) (SimConfig, error) {
	return baseline.Configure(base, n)
}

// Trace replay against a live deployment.
type (
	// ReplayOptions controls pacing, size scaling, and naming for a
	// replay against the TCP prototype.
	ReplayOptions = replay.Options
	// ReplayResult summarizes a replay run (client-observed response
	// times, hit ratio, errors).
	ReplayResult = replay.Result
)

// Populate creates a trace's files on a live cluster.
func Populate(cl *Client, tr *Trace, opts ReplayOptions) error {
	return replay.Populate(cl, tr, opts)
}

// PopulateByPopularity creates the files in descending popularity order,
// the layout step of the paper's process flow.
func PopulateByPopularity(cl *Client, tr *Trace, opts ReplayOptions) error {
	return replay.PopulateByPopularity(cl, tr, opts)
}

// Replay replays a trace against a live cluster with scaled pacing.
func Replay(cl *Client, tr *Trace, opts ReplayOptions) (ReplayResult, error) {
	return replay.Replay(cl, tr, opts)
}

package core

// The four names below are the ones the benchmark module
// (benchmark/replay.go) still calls, each an alias of the one
// workspace-taking function of its step. The next benchmark-scoped
// change moves replay.go to the plain names and deletes this file.
var (
	OptimalAcyclicThroughputWithWorkspace = OptimalAcyclicThroughput
	BuildSchemeWithWorkspace              = BuildScheme
	RepairAcyclicWithWorkspace            = RepairAcyclic
)

// ThroughputWithWorkspace is Throughput.
func (s *Scheme) ThroughputWithWorkspace(ws *Workspace) float64 { return s.Throughput(ws) }

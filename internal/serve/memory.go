// Replica memory: the collector headroom a serving process should run
// with, and the /statsz memory rows that show what it holds and what
// collecting costs.
package serve

import rtmetrics "runtime/metrics"

// GCHeadroom is the heap growth a serving process allows past its live
// heap before the next collection, in place of the runtime's default of
// the whole live heap again (GOGC=100). A replica's live heap is almost
// all immutable, pointer-free weights, so the default doubles the
// resident set to make room for request garbage of ~13 KB in ~200
// objects a request, HTTP included: 16 MiB is some 1,300 requests
// between collections. On serve_wide (2 vCPUs, 4 alternating pairs)
// 4 MiB cost the three servers 8–13 % of their request rates against
// 16 MiB, for 14 MB less peak RSS.
const GCHeadroom = 16 << 20

// GCPercent returns the GC percent (runtime/debug.SetGCPercent) under
// which a heap of paramBytes live weights may grow GCHeadroom before a
// collection: min(100, ⌈100·GCHeadroom/paramBytes⌉). A model of under
// 16 MiB keeps the default 100. The engine never sets it — the GC
// percent is the process's — so a server applies it (cmd/mtmlf-serve,
// after every load).
func GCPercent(paramBytes int) int {
	if paramBytes <= 0 {
		return 100
	}
	pb := int64(paramBytes)
	return int(min(100, (100*GCHeadroom+pb-1)/pb))
}

// MemoryStats is the process heap as the collector reports it
// (runtime/metrics): what a replica holds and what collecting costs.
type MemoryStats struct {
	// HeapLiveBytes is the heap the last collection marked live — on a
	// replica, about its parameter bytes; HeapGoalBytes is the heap
	// size at which the next collection starts.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	// GCPercent is the GC percent in force (-1 with GOGC=off).
	GCPercent int `json:"gc_percent"`
	// GCCycles and GCCPUSeconds count the collections since boot and the
	// CPU time they took.
	GCCycles     uint64  `json:"gc_cycles"`
	GCCPUSeconds float64 `json:"gc_cpu_seconds"`
}

// readMemory samples the runtime's heap and collector metrics.
func readMemory() MemoryStats {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/gogc:percent"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return MemoryStats{
		HeapLiveBytes: s[0].Value.Uint64(),
		HeapGoalBytes: s[1].Value.Uint64(),
		GCPercent:     int(int64(s[2].Value.Uint64())),
		GCCycles:      s[3].Value.Uint64(),
		GCCPUSeconds:  s[4].Value.Float64(),
	}
}

package sim

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"coleader/internal/core"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// TestQueueLayout pins the channel FIFO's per-channel and per-entry
// sizes for pulses. Every channel pays a queue header and every queued
// pulse run a pool slot, so at E15's million- and ten-million-node
// scale each byte here is megabytes of peak RSS.
func TestQueueLayout(t *testing.T) {
	if sz := unsafe.Sizeof(fifo[pulse.Pulse]{}); sz > 24 {
		t.Errorf("fifo[pulse.Pulse] is %d B, want <= 24: every channel pays it, which is peak RSS at scale (E15)", sz)
	}
	if sz := unsafe.Sizeof(pooled[pulse.Pulse]{}); sz > 24 {
		t.Errorf("pooled[pulse.Pulse] is %d B, want <= 24: every queued run pays it, which is peak RSS at scale (E15)", sz)
	}
}

// TestNewFlatBytesPerNode bounds what NewFlat allocates per node for
// the batched Heaviest election on 2^16 nodes (the configuration of
// the elect-batch workload): queue headers, wiring, node flags and the
// Heaviest heap's index, without the machine bank, which the caller
// built. TotalAlloc counts every allocation, so the bound is exact and
// does not depend on the collector.
func TestNewFlatBytesPerNode(t *testing.T) {
	const n = 1 << 16
	topo, err := ring.Oriented(n)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := core.NewFlatAlg2(topo, ring.ConsecutiveIDs(n))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewFlat[pulse.Pulse](topo, bank, Heaviest{}, WithBatching())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	if perNode := float64(after.TotalAlloc-before.TotalAlloc) / n; perNode > 100 {
		t.Errorf("NewFlat allocated %.1f B/node, want <= 100: the simulator's per-node footprint is peak RSS at scale (E15)", perNode)
	}
}

// TestRunBytesPerNode bounds what Run allocates per node for the same
// configuration, the returned Result included: the pool, the Heaviest
// heap and the termination order are each allocated once at their
// bound, so no structure leaves append-growth garbage behind. The
// bound is exact for the same reason as TestNewFlatBytesPerNode's.
func TestRunBytesPerNode(t *testing.T) {
	const n = 1 << 16
	topo, err := ring.Oriented(n)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := core.NewFlatAlg2(topo, ring.ConsecutiveIDs(n))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFlat[pulse.Pulse](topo, bank, Heaviest{}, WithBatching())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := s.Run(math.MaxUint64)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader < 0 {
		t.Fatalf("no unique leader: %v", res.Leaders)
	}
	if perNode := float64(after.TotalAlloc-before.TotalAlloc) / n; perNode > 128 {
		t.Errorf("Run allocated %.1f B/node, want <= 128: growth garbage is peak RSS at scale (E15)", perNode)
	}
}

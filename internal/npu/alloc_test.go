package npu

import (
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/packet"
)

// The tentpole guarantee: the steady-state packet path — dispatch, core
// reset, per-instruction hashing and monitoring, output read-back, stats —
// performs zero heap allocations per packet. The supervisor is enabled
// here deliberately: health tracking rides the same path and must not
// cost an allocation (its sliding window is a preallocated ring).

func allocNP(t *testing.T, cores int, reference bool) *NP {
	t.Helper()
	np, err := New(Config{
		Cores:           cores,
		MonitorsEnabled: true,
		Reference:       reference,
		Supervisor:      DefaultSupervisorConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	bin, g := makeBundle(t, apps.IPv4CM(), 0xA110C)
	if err := np.InstallAll("ipv4cm", bin, g, 0xA110C); err != nil {
		t.Fatal(err)
	}
	return np
}

func TestProcessOnZeroAllocs(t *testing.T) {
	np := allocNP(t, 1, false)
	gen := packet.NewGenerator(31)
	gen.OptionWords = 2
	pkts := make([][]byte, 32)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	// Warm up: populate the hash cache and size the output buffer.
	for _, p := range pkts {
		if _, err := np.ProcessOn(0, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := np.ProcessOn(0, pkts[i%len(pkts)], 0); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state ProcessOn allocates %.2f objects/packet, want 0", allocs)
	}
}

// TestProcessBatchAmortizedAllocs: the batch path reuses its arena, offsets
// and delta scratch, so per-packet allocations amortize to (almost)
// nothing; what remains is the returned results slice and the per-batch
// goroutine bookkeeping.
func TestProcessBatchAmortizedAllocs(t *testing.T) {
	np := allocNP(t, 4, false)
	gen := packet.NewGenerator(32)
	gen.OptionWords = 1
	pkts := make([][]byte, 512)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	if _, err := np.ProcessBatch(pkts, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := np.ProcessBatch(pkts, 0); err != nil {
			t.Fatal(err)
		}
	})
	perPacket := allocs / float64(len(pkts))
	if perPacket > 0.1 {
		t.Fatalf("batch path allocates %.3f objects/packet (%.0f/batch), want <= 0.1", perPacket, allocs)
	}
}

// TestDomainDrainAllocsNoWorseThanWholeNP: draining through a protection
// domain costs no more allocations per batch than draining the whole NP —
// the domain is resolved once, not per batch. Pinned on the root domain of
// an unpartitioned NP, by name and by view, and on a domain that owns
// every core.
func TestDomainDrainAllocsNoWorseThanWholeNP(t *testing.T) {
	np := allocNP(t, 2, false)
	gen := packet.NewGenerator(33)
	pkts := make([][]byte, 32)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	allocs := func(drain func([][]byte, int) (BatchOutcome, error)) float64 {
		t.Helper()
		if _, err := drain(pkts, 0); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := drain(pkts, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	byName := func(name string) func([][]byte, int) (BatchOutcome, error) {
		return func(pkts [][]byte, qdepth int) (BatchOutcome, error) {
			return np.DrainBatchDomain(name, pkts, qdepth)
		}
	}
	whole := allocs(np.DrainBatch)
	root, err := np.Domain("")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{
		`DrainBatchDomain("")`:  allocs(byName("")),
		`Domain("").DrainBatch`: allocs(root.DrainBatch),
	}
	if err := np.SetDomains([]DomainSpec{{Name: "x", Cores: []int{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	got[`DrainBatchDomain("x")`] = allocs(byName("x"))
	for name, n := range got {
		if n > whole {
			t.Errorf("%s allocates %.0f objects/batch, whole-NP DrainBatch %.0f", name, n, whole)
		}
	}
}

// TestDrainBatchAllocsBelowProcessBatch: a drain reports only the batch's
// outcome, so it builds no per-packet results slice and copies no output
// into the arena; it must allocate strictly fewer objects per batch than
// ProcessBatch running the same packets on the same NP.
func TestDrainBatchAllocsBelowProcessBatch(t *testing.T) {
	np := allocNP(t, 2, false)
	gen := packet.NewGenerator(34)
	pkts := make([][]byte, 32)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	if _, err := np.ProcessBatch(pkts, 0); err != nil {
		t.Fatal(err)
	}
	process := testing.AllocsPerRun(50, func() {
		if _, err := np.ProcessBatch(pkts, 0); err != nil {
			t.Fatal(err)
		}
	})
	drain := testing.AllocsPerRun(50, func() {
		if _, err := np.DrainBatch(pkts, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/batch: ProcessBatch %.1f, DrainBatch %.1f", process, drain)
	if drain >= process {
		t.Fatalf("DrainBatch allocates %.1f objects/batch, ProcessBatch %.1f; want strictly fewer", drain, process)
	}
}

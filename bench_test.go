package sdmmon

// One benchmark per evaluation artifact (Tables 1–3, Figure 6), the
// prose-claim experiments (E5, E6, E8), microbenchmarks of the hot paths,
// and the ablations called out in DESIGN.md §5. Shape metrics (who wins, by
// what factor) are exported via b.ReportMetric so `go test -bench` output
// doubles as the EXPERIMENTS.md data source.

import (
	crand "crypto/rand"
	mrand "math/rand"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/fpga"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/netlist"
	"sdmmon/internal/network"
	"sdmmon/internal/npu"
	"sdmmon/internal/packet"
	"sdmmon/internal/seccrypto"
	"sdmmon/internal/techmap"
	"sdmmon/internal/timing"
)

// --- Table 1 ---------------------------------------------------------------

func BenchmarkTable1ResourceUse(b *testing.B) {
	var rows []fpga.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = fpga.Table1(fpga.DefaultMonitorConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[1].Model.LUTs), "controlproc-LUTs")
	b.ReportMetric(float64(rows[2].Model.LUTs), "npcore-LUTs")
	b.ReportMetric(rows[2].ErrPct(), "npcore-err-%")
}

// --- Table 2 ---------------------------------------------------------------

func BenchmarkTable2SecurityFunctions(b *testing.B) {
	m := timing.NiosIIPrototype()
	var steps []timing.Step
	for i := 0; i < b.N; i++ {
		steps = m.Table2(timing.PrototypePackageInput())
	}
	for _, s := range steps {
		switch s.Name {
		case "Decrypt AES key using router private key":
			b.ReportMetric(s.Seconds, "rsa-decrypt-s")
		case "Total":
			b.ReportMetric(s.Seconds, "total-s")
		}
	}
}

// BenchmarkSecureInstall measures the real cryptographic pipeline (not the
// embedded model): device-side verification of a genuine package.
func BenchmarkSecureInstall(b *testing.B) {
	mfr, err := seccrypto.NewManufacturer("m", crand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	op, err := seccrypto.NewOperator("o", crand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	cert, err := mfr.IssueCertificate(op)
	if err != nil {
		b.Fatal(err)
	}
	op.SetCertificate(cert)
	dev, err := mfr.ProvisionDevice("r0", crand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		b.Fatal(err)
	}
	h := mhash.NewMerkle(0xABCD)
	g, err := monitor.Extract(prog, h)
	if err != nil {
		b.Fatal(err)
	}
	pkg, err := op.BuildPackage(dev.PublicInfo(), &seccrypto.Bundle{
		Binary: prog.Serialize(), Graph: g.Serialize(), HashParam: 0xABCD,
	}, crand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dev.OpenPackage(pkg, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3 ---------------------------------------------------------------

func BenchmarkTable3HashCost(b *testing.B) {
	var rows []fpga.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = fpga.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Model.LUTs), "bitcount-LUTs")
	b.ReportMetric(float64(rows[1].Model.LUTs), "merkle-LUTs")
	b.ReportMetric(float64(rows[1].Model.MemBits), "merkle-membits")
}

func BenchmarkTechmapMerkleUnit(b *testing.B) {
	ckt := netlist.BuildMerkleUnit(netlist.MerkleUnitOptions{Registered: true})
	for i := 0; i < b.N; i++ {
		if _, err := techmap.Map(ckt, techmap.Options{K: 4, UseCarryChains: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6 ---------------------------------------------------------------

func BenchmarkFigure6HashDistribution(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	mk := func(p uint32) mhash.Hasher { return mhash.NewMerkle(p) }
	var pd *mhash.PairDistribution
	for i := 0; i < b.N; i++ {
		pd = mhash.HammingDistribution(mk, 200, rng)
	}
	b.ReportMetric(pd.Mean(16), "mean-outHD-at-inHD16")
	b.ReportMetric(pd.TotalVariation(16), "TV-at-inHD16")
	b.ReportMetric(pd.TotalVariation(1), "TV-at-inHD1")
}

// --- E5: geometric escape probability ---------------------------------------

func BenchmarkEscapeProbability(b *testing.B) {
	rng := mrand.New(mrand.NewSource(2))
	mk := func(p uint32) mhash.Hasher { return mhash.NewMerkle(p) }
	var probs []float64
	for i := 0; i < b.N; i++ {
		probs = mhash.EscapeProbability(mk, 2, 20000, rng)
	}
	b.ReportMetric(probs[1], "escape-k1")
	b.ReportMetric(probs[2], "escape-k2")
}

// --- E6: cascade containment -------------------------------------------------

func BenchmarkCascadeContainment(b *testing.B) {
	variants := []struct {
		name        string
		diverse     bool
		compression mhash.Compress
	}{
		{"homogeneous-sum", false, nil},
		{"diverse-sum", true, nil},
		{"diverse-sbox", true, mhash.SBoxCompress()},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var res network.CascadeResult
			for i := 0; i < b.N; i++ {
				f, err := network.NewFleet(network.FleetConfig{
					Size: 8, DiverseParams: v.diverse, Compression: v.compression,
					Seed: int64(i) + 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err = f.Cascade()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Compromised), "compromised-of-8")
		})
	}
}

// --- E8: detection -----------------------------------------------------------

func BenchmarkDetectionLatency(b *testing.B) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		b.Fatal(err)
	}
	smash := attack.DefaultSmash()
	code, err := smash.HijackPayload()
	if err != nil {
		b.Fatal(err)
	}
	pkt, err := smash.CraftPacket(code)
	if err != nil {
		b.Fatal(err)
	}
	h := mhash.NewMerkle(0x1357)
	g, err := monitor.Extract(prog, h)
	if err != nil {
		b.Fatal(err)
	}
	m, err := monitor.New(g, h)
	if err != nil {
		b.Fatal(err)
	}
	core := apps.NewCore(prog)
	core.Trace = m.Observe
	detected := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		res := core.Process(pkt, 0)
		if res.Exc != nil {
			detected++
		}
	}
	b.ReportMetric(float64(detected)/float64(b.N), "detection-rate")
}

// --- throughput + monitor-overhead ablation ----------------------------------

func benchThroughput(b *testing.B, monitors bool) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		b.Fatal(err)
	}
	h := mhash.NewMerkle(0x2468)
	g, err := monitor.Extract(prog, h)
	if err != nil {
		b.Fatal(err)
	}
	np, err := npu.New(npu.Config{Cores: 1, MonitorsEnabled: monitors})
	if err != nil {
		b.Fatal(err)
	}
	if err := np.InstallAll("ipv4cm", prog.Serialize(), g.Serialize(), 0x2468); err != nil {
		b.Fatal(err)
	}
	gen := packet.NewGenerator(9)
	gen.OptionWords = 1
	pkts := make([][]byte, 64)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := np.Process(pkts[i%len(pkts)], 0); err != nil {
			b.Fatal(err)
		}
	}
	s := np.Stats()
	b.ReportMetric(float64(s.Cycles)/float64(s.Processed), "simcycles/pkt")
}

func BenchmarkMonitoredForwarding(b *testing.B)   { benchThroughput(b, true) }
func BenchmarkUnmonitoredForwarding(b *testing.B) { benchThroughput(b, false) }

// BenchmarkParallelForwarding exercises the goroutine-per-core batch path.
func BenchmarkParallelForwarding(b *testing.B) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		b.Fatal(err)
	}
	h := mhash.NewMerkle(0x9999)
	g, err := monitor.Extract(prog, h)
	if err != nil {
		b.Fatal(err)
	}
	np, err := npu.New(npu.Config{Cores: 4, MonitorsEnabled: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := np.InstallAll("ipv4cm", prog.Serialize(), g.Serialize(), 0x9999); err != nil {
		b.Fatal(err)
	}
	gen := packet.NewGenerator(10)
	gen.OptionWords = 1
	batch := make([][]byte, 256)
	for i := range batch {
		batch[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := np.ProcessBatch(batch, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch)), "pkts/batch")
}

// --- E9: dynamic workload management -------------------------------------------

func BenchmarkWorkloadRebalancing(b *testing.B) {
	np, err := npu.New(npu.Config{Cores: 4, MonitorsEnabled: true})
	if err != nil {
		b.Fatal(err)
	}
	m, err := network.NewWorkloadManager(np, network.DefaultClasses(), 200, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen := packet.NewGenerator(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Flip the mix periodically so rebalances occur inside the loop.
		if i%400 == 0 {
			gen.UDPShare = 1 - gen.UDPShare
		}
		if _, err := m.Process(gen.Next(), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Reprograms), "reprograms")
}

// --- hash microbenchmarks ------------------------------------------------------

func BenchmarkMerkleHash(b *testing.B) {
	h := mhash.NewMerkle(0xCAFEBABE)
	var sink uint8
	for i := 0; i < b.N; i++ {
		sink ^= h.Hash(uint32(i) * 2654435761)
	}
	_ = sink
}

func BenchmarkBitcountHash(b *testing.B) {
	h := mhash.NewBitcount()
	var sink uint8
	for i := 0; i < b.N; i++ {
		sink ^= h.Hash(uint32(i) * 2654435761)
	}
	_ = sink
}

// BenchmarkMonitorImplementations compares the map-based reference monitor
// with the packed monitor (the hardware layout compiled to a transition
// table) on the same stream, both hashing uncached.
func BenchmarkMonitorImplementations(b *testing.B) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		b.Fatal(err)
	}
	h := mhash.NewMerkle(0x1111)
	g, err := monitor.Extract(prog, h)
	if err != nil {
		b.Fatal(err)
	}
	words := prog.CodeWords()
	b.Run("map", func(b *testing.B) {
		m, err := monitor.New(g, h)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			cw := words[i%len(words)]
			if !m.Observe(cw.Addr, cw.W) {
				m.Reset()
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		p, err := monitor.Pack(g)
		if err != nil {
			b.Fatal(err)
		}
		m, err := monitor.NewPacked(p, h)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			cw := words[i%len(words)]
			if !m.Observe(cw.Addr, cw.W) {
				m.Reset()
			}
		}
	})
}

func BenchmarkGraphExtraction(b *testing.B) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		b.Fatal(err)
	}
	h := mhash.NewMerkle(7)
	for i := 0; i < b.N; i++ {
		if _, err := monitor.Extract(prog, h); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations ------------------------------------------------------------------

// BenchmarkAblationCompression compares the compression functions on the
// two properties that matter: Figure 6 randomness (TV distance at mid-range
// input HD) and attack transferability across parameters.
func BenchmarkAblationCompression(b *testing.B) {
	mks := map[string]func(uint32) mhash.Hasher{
		"sum": func(p uint32) mhash.Hasher { return mhash.NewMerkle(p) },
		"xor": func(p uint32) mhash.Hasher {
			h, _ := mhash.NewMerkleWith(p, 4, mhash.XorCompress(4))
			return h
		},
		"sbox": func(p uint32) mhash.Hasher {
			h, _ := mhash.NewMerkleWith(p, 4, mhash.SBoxCompress())
			return h
		},
	}
	for name, mk := range mks {
		b.Run(name, func(b *testing.B) {
			rng := mrand.New(mrand.NewSource(3))
			var pd *mhash.PairDistribution
			for i := 0; i < b.N; i++ {
				pd = mhash.HammingDistribution(mk, 150, rng)
			}
			b.ReportMetric(pd.TotalVariation(16), "TV-at-inHD16")
			b.ReportMetric(attack.TransferProbability(mk, 2000, 4), "attack-transfer-prob")
		})
	}
}

// BenchmarkAblationHashWidth sweeps the monitor hash width: escape
// probability halves per bit while the monitoring-graph memory grows.
func BenchmarkAblationHashWidth(b *testing.B) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "w2", 4: "w4", 8: "w8"}[width], func(b *testing.B) {
			mk := func(p uint32) mhash.Hasher {
				h, err := mhash.NewMerkleWith(p, width, nil)
				if err != nil {
					b.Fatal(err)
				}
				return h
			}
			rng := mrand.New(mrand.NewSource(5))
			var esc []float64
			for i := 0; i < b.N; i++ {
				esc = mhash.EscapeProbability(mk, 1, 20000, rng)
			}
			g, err := monitor.Extract(prog, mk(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(esc[1], "escape-k1")
			b.ReportMetric(float64(g.MemoryBits()), "graph-bits")
		})
	}
}

// BenchmarkAblationGranularity compares the paper's per-instruction
// monitoring against the related-work block-granularity design point:
// memory footprint vs detection latency.
func BenchmarkAblationGranularity(b *testing.B) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		b.Fatal(err)
	}
	h := mhash.NewMerkle(0xB10C)
	g, err := monitor.Extract(prog, h)
	if err != nil {
		b.Fatal(err)
	}
	bg, err := monitor.ExtractBlocks(prog, h)
	if err != nil {
		b.Fatal(err)
	}
	words := prog.CodeWords()
	b.Run("instruction", func(b *testing.B) {
		m, err := monitor.New(g, h)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			cw := words[i%len(words)]
			if !m.Observe(cw.Addr, cw.W) {
				m.Reset()
			}
		}
		b.ReportMetric(float64(g.MemoryBits()), "graph-bits")
	})
	b.Run("block", func(b *testing.B) {
		m, err := monitor.NewBlock(bg, h)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			cw := words[i%len(words)]
			if !m.Observe(cw.Addr, cw.W) {
				m.Reset()
			}
		}
		b.ReportMetric(float64(bg.MemoryBits()), "graph-bits")
	})
}

// BenchmarkAblationLUTK maps the Table 3 circuits at K=4 and K=6.
func BenchmarkAblationLUTK(b *testing.B) {
	merkle := netlist.BuildMerkleUnit(netlist.MerkleUnitOptions{Registered: true})
	bitcount := netlist.BuildBitcountUnit(netlist.BitcountUnitOptions{Registered: true})
	for _, k := range []int{4, 6} {
		b.Run(map[int]string{4: "K4", 6: "K6"}[k], func(b *testing.B) {
			var rm, rb *techmap.Result
			var err error
			for i := 0; i < b.N; i++ {
				rm, err = techmap.Map(merkle, techmap.Options{K: k, UseCarryChains: true})
				if err != nil {
					b.Fatal(err)
				}
				rb, err = techmap.Map(bitcount, techmap.Options{K: k})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rm.TotalALUTs()), "merkle-ALUTs")
			b.ReportMetric(float64(rb.TotalALUTs()), "bitcount-ALUTs")
		})
	}
}

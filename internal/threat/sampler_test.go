package threat

import (
	"testing"

	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
)

// TestSamplerReadsLabeledInstance pins the sampler to the NP's own cycle
// histograms. An NP with Config.Instance set publishes
// np_packet_cycles{np="np0",core="N"}; a sampler that rebuilt the
// unlabeled name would read an empty series and report no outliers. With
// OutlierAt far below ipv4cm's cost, every packet is an outlier.
func TestSamplerReadsLabeledInstance(t *testing.T) {
	col := obs.New(64)
	np := liveNP(t, npu.Config{Cores: 2, Obs: col, Instance: "np0"}, 7)
	sampler, err := NewSampler(SamplerConfig{NPs: []*npu.NP{np}, OutlierAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := packet.NewGenerator(7)
	for i := 0; i < 64; i++ {
		if _, err := np.ProcessOn(i%np.Cores(), gen.Next(), 0); err != nil {
			t.Fatal(err)
		}
	}
	var seen int
	for _, s := range sampler.Collect() {
		if s.Signal != SigCycleOutlier {
			continue
		}
		seen++
		if s.Value != 1 {
			t.Errorf("core %d cycle-outlier rate = %v, want 1 (every packet above OutlierAt)", s.Core, s.Value)
		}
	}
	if seen != np.Cores() {
		t.Fatalf("got %d cycle-outlier samples, want one per core (%d)", seen, np.Cores())
	}
}

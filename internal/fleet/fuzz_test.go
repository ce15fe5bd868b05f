package fleet

import (
	"bytes"
	"testing"

	"sdmmon/internal/rollout"
	"sdmmon/internal/seccrypto"
)

// The wire-format fuzz invariant: any input that decodes must re-encode to
// the identical bytes (the canonical encoding is a fixed point), and
// decoders must reject — never panic on — arbitrary input.

func FuzzFleetReport(f *testing.F) {
	rep := &FleetReport{
		Seed:            42,
		Release:         seccrypto.Manifest{AppName: "ipv4cm", Version: "rot.3", Sequence: 3},
		Waves:           []WaveStatus{WaveCommitted, WaveCommitted, WavePending, WavePending},
		Completed:       false,
		MakespanSeconds: 12.5,
		GroupClocks:     []float64{12.5, 3.25},
		Probe:           rollout.Sample{Processed: 640, Alarms: 1, Faults: 0},
		TotalAttempts:   97,
		Routers: []RouterRecord{
			{ID: "np-0000", Wave: 0, State: rollout.Committed, Attempts: 3},
			{ID: "np-0001", Wave: 1, State: rollout.Failed, Attempts: 8, LastErr: "delivery attempts exhausted"},
			{ID: "np-0002", Wave: 2, State: rollout.Pending, Byzantine: true},
		},
	}
	f.Add(rep.Marshal())
	f.Add([]byte("FLTR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := UnmarshalFleetReport(data)
		if err != nil {
			return
		}
		if !bytes.Equal(dec.Marshal(), data) {
			t.Fatalf("decoded report is not a fixed point of its encoding")
		}
	})
}

func FuzzRotationPlan(f *testing.F) {
	f.Add(NewRotationPlan(7, []string{"np-0000", "np-0001", "np-0002"}).Marshal())
	f.Add((&RotationPlan{Params: map[string]uint32{}}).Marshal())
	f.Add([]byte("FLRP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := UnmarshalRotationPlan(data)
		if err != nil {
			return
		}
		// Anything that decodes satisfies the rotation invariant and
		// re-encodes canonically.
		if !plan.Distinct() {
			t.Fatal("decoder accepted a plan with duplicate parameters")
		}
		if !bytes.Equal(plan.Marshal(), data) {
			t.Fatal("decoded plan is not a fixed point of its encoding")
		}
	})
}

package npu

import (
	"bytes"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/packet"
)

// fuzzNP builds an NP with ipv4cm and monitors installed, without a
// *testing.T (fuzz targets construct state under *testing.F); reference
// selects the map-based reference monitor.
func fuzzNP(cores int, reference bool) (*NP, error) {
	np, err := New(Config{Cores: cores, MonitorsEnabled: true, Reference: reference})
	if err != nil {
		return nil, err
	}
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		return nil, err
	}
	const param = 0x600D
	g, err := monitor.Extract(prog, mhash.NewMerkle(param))
	if err != nil {
		return nil, err
	}
	if err := np.InstallAll("ipv4cm", prog.Serialize(), g.Serialize(), param); err != nil {
		return nil, err
	}
	return np, nil
}

// FuzzProcessPacket throws arbitrary bytes at an installed ipv4cm core with
// monitors enabled. Whatever the bytes — truncated headers, garbage options,
// crafted attack payloads — the data plane must not panic, the statistics
// must not drift (every accepted packet counted exactly once, conservation
// preserved), and a monitor alarm must always translate into a drop verdict
// (the paper's recovery sequence). Every input also runs on a Reference NP
// that has seen the same inputs, and the fast path must match it: verdict,
// detection, fault, cycles and output bytes.
func FuzzProcessPacket(f *testing.F) {
	gen := packet.NewGenerator(77)
	gen.OptionWords = 1
	f.Add(gen.Next())
	f.Add(gen.Next())
	smash := attack.DefaultSmash()
	if code, err := smash.HijackPayload(); err == nil {
		if pkt, err := smash.CraftPacket(code); err == nil {
			f.Add(pkt)
		}
	}
	f.Add([]byte(nil))
	f.Add([]byte{0x45})
	f.Add(make([]byte, 20))

	np, err := fuzzNP(1, false)
	if err != nil {
		f.Fatal(err)
	}
	ref, err := fuzzNP(1, true)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, pkt []byte) {
		before := np.Stats()
		res, err := np.ProcessOn(0, pkt, 0)
		after := np.Stats()
		want, refErr := ref.ProcessOn(0, pkt, 0)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("fast path err %v, reference err %v", err, refErr)
		}
		if res.Verdict != want.Verdict || res.Detected != want.Detected || res.Faulted != want.Faulted ||
			res.Cycles != want.Cycles || !bytes.Equal(res.Packet, want.Packet) {
			t.Fatalf("fast path %+v diverges from reference %+v", res, want)
		}
		if err != nil {
			// Only an oversized packet may be rejected, and a rejected
			// packet must leave the statistics untouched.
			if len(pkt) <= apps.MemSize-apps.PktBase {
				t.Fatalf("in-range packet (%d bytes) rejected: %v", len(pkt), err)
			}
			if after != before {
				t.Fatalf("rejected packet changed stats: %+v -> %+v", before, after)
			}
			return
		}
		if after.Processed != before.Processed+1 {
			t.Fatalf("Processed %d -> %d for one packet", before.Processed, after.Processed)
		}
		if after.Processed != after.Forwarded+after.Dropped {
			t.Fatalf("stats conservation violated: %+v", after)
		}
		if res.Detected && res.Verdict != apps.VerdictDrop {
			t.Fatalf("alarm without drop verdict: %+v", res)
		}
		if res.Detected && res.Faulted {
			t.Fatalf("result both detected and faulted: %+v", res)
		}
	})
}

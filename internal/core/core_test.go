package core

import (
	"errors"
	"sync"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/packet"
	"sdmmon/internal/seccrypto"
)

// Shared fixture: RSA keygen is the slow part.
type fixture struct {
	mfr   *Manufacturer
	op    *Operator
	rogue *Operator // certified by a different manufacturer
	dev   *Device
	dev2  *Device
	nomon *Device // monitors disabled
}

var (
	once sync.Once
	fix  fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	once.Do(func() {
		mfr, err := NewManufacturer("acme", nil)
		if err != nil {
			panic(err)
		}
		evil, err := NewManufacturer("evil", nil)
		if err != nil {
			panic(err)
		}
		op, err := NewOperator("isp", nil)
		if err != nil {
			panic(err)
		}
		if err := mfr.Certify(op); err != nil {
			panic(err)
		}
		rogue, err := NewOperator("rogue", nil)
		if err != nil {
			panic(err)
		}
		if err := evil.Certify(rogue); err != nil {
			panic(err)
		}
		cfg := DeviceConfig{Cores: 2, MonitorsEnabled: true}
		dev, err := mfr.Manufacture("router-0", cfg)
		if err != nil {
			panic(err)
		}
		dev2, err := mfr.Manufacture("router-1", cfg)
		if err != nil {
			panic(err)
		}
		nomon, err := mfr.Manufacture("router-insecure", DeviceConfig{Cores: 1})
		if err != nil {
			panic(err)
		}
		fix = fixture{mfr: mfr, op: op, rogue: rogue, dev: dev, dev2: dev2, nomon: nomon}
	})
	return &fix
}

func TestEndToEndLifecycle(t *testing.T) {
	f := getFixture(t)
	wire, err := f.op.ProgramWire(f.dev.Public(), apps.IPv4CM())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.dev.Install(wire)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WireBytes != len(wire) {
		t.Errorf("wire bytes %d != %d", rep.WireBytes, len(wire))
	}
	if rep.ModelSeconds <= 0 {
		t.Error("no modeled install time")
	}
	if rep.Ops.RSAPrivateOps != 1 {
		t.Errorf("ops = %+v", rep.Ops)
	}
	// Benign traffic flows.
	gen := packet.NewGenerator(1)
	for i := 0; i < 30; i++ {
		res, err := f.dev.Process(gen.Next(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected || res.Faulted {
			t.Fatalf("benign packet %d flagged", i)
		}
	}
	// The attack is detected.
	smash := attack.DefaultSmash()
	code, err := smash.HijackPayload()
	if err != nil {
		t.Fatal(err)
	}
	atk, err := smash.CraftPacket(code)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.dev.Process(atk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("attack not detected end-to-end")
	}
	if len(f.dev.Installs()) == 0 {
		t.Error("install history empty")
	}
}

func TestCertCheckOnlyOnce(t *testing.T) {
	f := getFixture(t)
	dev, err := f.mfr.Manufacture("router-cert", DeviceConfig{Cores: 1, MonitorsEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	wire1, err := f.op.ProgramWire(dev.Public(), apps.Counter())
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := dev.Install(wire1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.CertChecked || rep1.Ops.RSAPublicOps != 2 {
		t.Errorf("first install: %+v", rep1)
	}
	wire2, err := f.op.ProgramWire(dev.Public(), apps.UDPEcho())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := dev.Install(wire2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CertChecked || rep2.Ops.RSAPublicOps != 1 {
		t.Errorf("second install: %+v", rep2)
	}
}

// The pin covers the whole certificate, not only its key: after the first
// install, a package whose certificate signature lost one bit in transit
// gets the full certificate check and is refused, while the intact
// certificate still skips it.
func TestCertPinCoversCertificateBytes(t *testing.T) {
	f := getFixture(t)
	dev, err := f.mfr.Manufacture("router-pin", DeviceConfig{Cores: 1, MonitorsEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	wire1, err := f.op.ProgramWire(dev.Public(), apps.Counter())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Install(wire1); err != nil {
		t.Fatal(err)
	}
	wire2, err := f.op.ProgramWire(dev.Public(), apps.UDPEcho())
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := seccrypto.UnmarshalPackage(wire2)
	if err != nil {
		t.Fatal(err)
	}
	pkg.Cert.Signature[len(pkg.Cert.Signature)/2] ^= 0x01
	if _, err := dev.Install(pkg.Marshal()); !errors.Is(err, seccrypto.ErrBadCertificate) {
		t.Fatalf("reinstall with a flipped certificate signature: err=%v, want ErrBadCertificate", err)
	}
	rep, err := dev.Install(wire2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CertChecked {
		t.Error("the pinned certificate was checked again")
	}
}

// SR1 end to end: rogue operator's package refused.
func TestSR1EndToEnd(t *testing.T) {
	f := getFixture(t)
	wire, err := f.rogue.ProgramWire(f.dev.Public(), apps.IPv4CM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.dev.Install(wire); !errors.Is(err, seccrypto.ErrBadCertificate) {
		t.Errorf("rogue install: %v", err)
	}
}

// SR4 end to end: package for router-0 refused by router-1.
func TestSR4EndToEnd(t *testing.T) {
	f := getFixture(t)
	wire, err := f.op.ProgramWire(f.dev.Public(), apps.IPv4CM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.dev2.Install(wire); !errors.Is(err, seccrypto.ErrWrongDevice) {
		t.Errorf("cross-device install: %v", err)
	}
}

// SR2 end to end: programmings draw fresh parameters and (usually) fresh
// graphs. Note the collapse finding bites here too: under the sum
// compression two parameters with equal nibble-sums (probability 1/16)
// produce IDENTICAL graphs — the effective key space is only 16 values, so
// the test asserts divergence across several draws, not per pair.
func TestSR2FreshParameters(t *testing.T) {
	f := getFixture(t)
	var bundles []*seccrypto.Bundle
	params := map[uint32]bool{}
	graphs := map[string]bool{}
	for i := 0; i < 6; i++ {
		b, err := f.op.PrepareBundle(apps.IPv4CM())
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, b)
		params[b.HashParam] = true
		graphs[string(b.Graph)] = true
	}
	if len(params) < 6 {
		t.Errorf("only %d distinct parameters in 6 draws", len(params))
	}
	// P(all 6 graphs identical) = 16^-5 ≈ 1e-6 under the sum compression.
	if len(graphs) < 2 {
		t.Error("all graphs identical across six parameters")
	}
	for _, b := range bundles[1:] {
		if string(b.Binary) != string(bundles[0].Binary) {
			t.Error("binary should be identical across parameters")
		}
	}
}

func TestTamperedWireRejected(t *testing.T) {
	f := getFixture(t)
	wire, err := f.op.ProgramWire(f.dev.Public(), apps.Counter())
	if err != nil {
		t.Fatal(err)
	}
	wire[len(wire)/2] ^= 0x40
	if _, err := f.dev.Install(wire); err == nil {
		t.Error("tampered wire accepted")
	}
	if _, err := f.dev.Install(wire[:30]); err == nil {
		t.Error("truncated wire accepted")
	}
}

func TestUnmonitoredDeviceBaseline(t *testing.T) {
	f := getFixture(t)
	wire, err := f.op.ProgramWire(f.nomon.Public(), apps.IPv4CM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.nomon.Install(wire); err != nil {
		t.Fatal(err)
	}
	smash := attack.DefaultSmash()
	code, err := smash.HijackPayload()
	if err != nil {
		t.Fatal(err)
	}
	atk, err := smash.CraftPacket(code)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.nomon.Process(atk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Error("unmonitored device detected an attack")
	}
	if res.Verdict != apps.VerdictForward {
		t.Errorf("hijack verdict = %d", res.Verdict)
	}
}

func TestInstallOnSingleCore(t *testing.T) {
	f := getFixture(t)
	dev, err := f.mfr.Manufacture("router-percore", DeviceConfig{Cores: 2, MonitorsEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	wireA, err := f.op.ProgramWire(dev.Public(), apps.UDPEcho())
	if err != nil {
		t.Fatal(err)
	}
	wireB, err := f.op.ProgramWire(dev.Public(), apps.Counter())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.InstallOn(wireA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.InstallOn(wireB, 1); err != nil {
		t.Fatal(err)
	}
	a0, _ := dev.NP().AppOn(0)
	a1, _ := dev.NP().AppOn(1)
	if a0 == a1 {
		t.Error("per-core installs collided")
	}
}

func TestDeviceConfigDefaults(t *testing.T) {
	cfg := DefaultDeviceConfig()
	if cfg.Cores != 4 || !cfg.MonitorsEnabled {
		t.Errorf("defaults = %+v", cfg)
	}
}

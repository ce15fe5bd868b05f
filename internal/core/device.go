package core

import (
	"bytes"
	"fmt"

	"sdmmon/internal/mhash"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/seccrypto"
	"sdmmon/internal/timing"
)

// Device is one router: a control processor holding the device identity and
// running the secure-installation pipeline, plus a multicore NP.
type Device struct {
	ID        string
	identity  *seccrypto.DeviceIdentity
	np        *npu.NP
	cost      timing.CostModel
	newHasher func(uint32) mhash.Hasher

	installs []InstallReport
	// pinnedCert is the operator certificate pinned after the first
	// successful verification. Later installs skip the certificate check
	// (the §4.2 optimization) only when the presented certificate is this
	// one, byte for byte: skipping unconditionally would let any
	// self-signed certificate through, and skipping on the key alone would
	// accept certificate bytes nobody checked.
	pinnedCert *seccrypto.Certificate
	// revoked lists certificate serials this device refuses (an extension
	// beyond the paper: operator key rotation needs a way to retire the
	// old certificate).
	revoked map[uint64]bool

	// Secure-install telemetry, resolved once at manufacture; nil (no
	// collector attached) makes every publish a no-op.
	mSecInstalls *obs.Counter
	mSecFailures *obs.Counter
	hSecVerify   *obs.Histogram
}

// recordInstall publishes one verification-pipeline outcome: a counted
// failure, or a counted success with its modeled control-processor seconds.
func (d *Device) recordInstall(rep *InstallReport, err error) {
	if err != nil {
		d.mSecFailures.Inc()
		return
	}
	d.mSecInstalls.Inc()
	d.hSecVerify.Observe(rep.ModelSeconds)
}

// RevokeCertificate blacklists a certificate serial (distributed by the
// manufacturer out of band). If the pinned operator key was established by
// that certificate, the pin is dropped so the next install re-verifies.
func (d *Device) RevokeCertificate(serial uint64, keyDER []byte) {
	if d.revoked == nil {
		d.revoked = map[uint64]bool{}
	}
	d.revoked[serial] = true
	if keyDER != nil && d.pinnedCert != nil && bytes.Equal(d.pinnedCert.KeyDER, keyDER) {
		d.pinnedCert = nil
	}
}

// pinned reports whether c is the pinned certificate: every field equal,
// which is every byte of its wire form.
func (d *Device) pinned(c *seccrypto.Certificate) bool {
	p := d.pinnedCert
	return c != nil && p != nil && c.Subject == p.Subject && c.Serial == p.Serial &&
		bytes.Equal(c.KeyDER, p.KeyDER) && bytes.Equal(c.Signature, p.Signature)
}

// pin pins a certificate that verified (or was the pinned one already).
func (d *Device) pin(c *seccrypto.Certificate) {
	d.pinnedCert = &seccrypto.Certificate{Subject: c.Subject, Serial: c.Serial,
		KeyDER: bytes.Clone(c.KeyDER), Signature: bytes.Clone(c.Signature)}
}

// Public returns the device's public identity for the operator inventory.
func (d *Device) Public() seccrypto.DevicePublic { return d.identity.PublicInfo() }

// NP exposes the network processor (stats, scratch, per-core access).
func (d *Device) NP() *npu.NP { return d.np }

// InstallReport records one secure installation with its cost accounting.
type InstallReport struct {
	App          string
	WireBytes    int
	Ops          seccrypto.OpCounts
	ModelSeconds float64 // control-processor time per the Table 2 model
	CertChecked  bool
}

// Installs returns the install history.
func (d *Device) Installs() []InstallReport { return d.installs }

// Install runs the device side of the protocol on a wire-format package:
// verify, decrypt, check, then load binary+graph+parameter onto every NP
// core. The certificate check runs on the first installation and is skipped
// afterwards, as in §4.2.
func (d *Device) Install(wire []byte) (*InstallReport, error) {
	return d.install(wire, -1)
}

// InstallOn installs onto a single core (dynamic per-core workloads, §1).
func (d *Device) InstallOn(wire []byte, coreID int) (*InstallReport, error) {
	return d.install(wire, coreID)
}

// open runs the full package verification pipeline (unmarshal, revocation,
// certificate with pinning, decrypt, signature, device binding,
// anti-downgrade) shared by the destructive install, the resident-library
// load, and the staged-upgrade path.
func (d *Device) open(wire []byte) (pkg *seccrypto.Package, bundle *seccrypto.Bundle,
	ops seccrypto.OpCounts, skipCert bool, err error) {
	pkg, err = seccrypto.UnmarshalPackage(wire)
	if err != nil {
		return nil, nil, ops, false, err
	}
	if pkg.Cert != nil && d.revoked[pkg.Cert.Serial] {
		return nil, nil, ops, false, fmt.Errorf("core: certificate serial %d revoked: %w",
			pkg.Cert.Serial, seccrypto.ErrBadCertificate)
	}
	skipCert = d.pinned(pkg.Cert)
	bundle, ops, err = d.identity.OpenPackage(pkg, skipCert)
	if err != nil {
		return nil, nil, ops, skipCert, err
	}
	ops.DownloadBytes = len(wire)
	return pkg, bundle, ops, skipCert, nil
}

// bundleName derives the NP-visible application label: the signed manifest
// identity when present (so operators and the rollout engine can read which
// release a core runs), the package digest otherwise.
func bundleName(pkg *seccrypto.Package, bundle *seccrypto.Bundle) string {
	if m := bundle.Manifest; !m.Zero() {
		return fmt.Sprintf("%s@%s", m.AppName, m.Version)
	}
	return fmt.Sprintf("bundle-%s", pkg.DigestHex())
}

func (d *Device) install(wire []byte, coreID int) (rep *InstallReport, err error) {
	defer func() { d.recordInstall(rep, err) }()
	pkg, bundle, ops, skipCert, err := d.open(wire)
	if err != nil {
		return nil, err
	}

	name := bundleName(pkg, bundle)
	if coreID < 0 {
		err = d.np.InstallAll(name, bundle.Binary, bundle.Graph, bundle.HashParam)
	} else {
		err = d.np.Install(coreID, name, bundle.Binary, bundle.Graph, bundle.HashParam)
	}
	if err != nil {
		return nil, err
	}
	d.pin(pkg.Cert)

	r := InstallReport{
		App:          name,
		WireBytes:    len(wire),
		Ops:          ops,
		ModelSeconds: d.cost.EstimateOps(ops),
		CertChecked:  !skipCert,
	}
	d.installs = append(d.installs, r)
	return &r, nil
}

// StageUpgrade verifies a package and stages its bundle into every NP core's
// shadow slot: the currently live application keeps serving packets until
// CommitUpgrade cuts over. The full cryptographic pipeline (including the
// anti-downgrade sequence check) runs here, so a staged bundle is as trusted
// as an installed one.
func (d *Device) StageUpgrade(wire []byte) (rep *InstallReport, err error) {
	defer func() { d.recordInstall(rep, err) }()
	pkg, bundle, ops, skipCert, err := d.open(wire)
	if err != nil {
		return nil, err
	}
	name := bundleName(pkg, bundle)
	if err := d.np.StageInstallAll(name, bundle.Binary, bundle.Graph, bundle.HashParam); err != nil {
		return nil, err
	}
	d.pin(pkg.Cert)
	r := InstallReport{
		App:          name,
		WireBytes:    len(wire),
		Ops:          ops,
		ModelSeconds: d.cost.EstimateOps(ops),
		CertChecked:  !skipCert,
	}
	d.installs = append(d.installs, r)
	return &r, nil
}

// CommitUpgrade atomically cuts every core over to its staged bundle (per
// core at a packet boundary), retaining the displaced version for
// RollbackUpgrade. Returns the simulated NP cutover cost in core cycles.
func (d *Device) CommitUpgrade() (uint64, error) { return d.np.CommitAll() }

// AbortUpgrade discards any staged bundles; the live application is
// untouched.
func (d *Device) AbortUpgrade() { d.np.AbortAllStaged() }

// RollbackUpgrade restores the retained previous version on every core.
// Returns the simulated NP cutover cost in core cycles.
func (d *Device) RollbackUpgrade() (uint64, error) { return d.np.RollbackAll() }

// LiveApp reports the application label live on core 0 (fleet devices run
// one application on all cores).
func (d *Device) LiveApp() (string, bool) { return d.np.AppOn(0) }

// LiveParam reports the hash parameter live on core 0 — the per-device
// evidence behind the fleet's pairwise-distinct rotation invariant.
func (d *Device) LiveParam() (uint32, bool) { return d.np.ParamOn(0) }

// SequenceState serializes the device's anti-downgrade high-water marks for
// persistence across reboots.
func (d *Device) SequenceState() []byte { return d.identity.Sequences().Marshal() }

// RestoreSequenceState reloads persisted anti-downgrade state (the reboot
// path). Restoring stale or empty state re-opens the replay window — exactly
// why the ledger must be persisted.
func (d *Device) RestoreSequenceState(state []byte) error {
	l, err := seccrypto.UnmarshalSequenceLedger(state)
	if err != nil {
		return err
	}
	d.identity.RestoreSequences(l)
	return nil
}

// InstallResident verifies a package and stores its bundle in the NP's
// resident application library under the given name, without programming
// any core. Cores switch to resident applications in microseconds via
// Switch — the §4.2 fast path for dynamic workload changes.
func (d *Device) InstallResident(wire []byte, name string) (rep *InstallReport, err error) {
	defer func() { d.recordInstall(rep, err) }()
	pkg, err := seccrypto.UnmarshalPackage(wire)
	if err != nil {
		return nil, err
	}
	if pkg.Cert != nil && d.revoked[pkg.Cert.Serial] {
		return nil, fmt.Errorf("core: certificate serial %d revoked: %w",
			pkg.Cert.Serial, seccrypto.ErrBadCertificate)
	}
	skipCert := d.pinned(pkg.Cert)
	bundle, ops, err := d.identity.OpenPackage(pkg, skipCert)
	if err != nil {
		return nil, err
	}
	ops.DownloadBytes = len(wire)
	if err := d.np.LoadLibrary(name, bundle.Binary, bundle.Graph, bundle.HashParam); err != nil {
		return nil, err
	}
	d.pin(pkg.Cert)
	r := InstallReport{
		App:          name,
		WireBytes:    len(wire),
		Ops:          ops,
		ModelSeconds: d.cost.EstimateOps(ops),
		CertChecked:  !skipCert,
	}
	d.installs = append(d.installs, r)
	return &r, nil
}

// Switch points a core at a resident application (no cryptography on this
// path). Returns the simulated switch cost in core cycles.
func (d *Device) Switch(coreID int, name string) (uint64, error) {
	return d.np.Switch(coreID, name)
}

// Process runs one packet through the NP (round-robin core dispatch).
func (d *Device) Process(pkt []byte, qdepth int) (npu.Result, error) {
	return d.np.Process(pkt, qdepth)
}

// Stats returns the NP statistics.
func (d *Device) Stats() npu.Stats { return d.np.Stats() }

// CostModel exposes the control-processor timing model.
func (d *Device) CostModel() timing.CostModel { return d.cost }

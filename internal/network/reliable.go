package network

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sdmmon/internal/apps"
	"sdmmon/internal/core"
	"sdmmon/internal/fault"
	"sdmmon/internal/obs"
	"sdmmon/internal/timing"
)

// This file makes the secure-installation path survive the management
// network it actually runs over (§5: "devices distributed anywhere in the
// Internet"): packages are retransmitted over a lossy link with capped
// exponential backoff plus jitter, each router has a delivery deadline, and
// a fleet rollout reports partial failure per router instead of aborting.
// Corrupted packages are indistinguishable from attacks at the device — the
// signature or decryption check fails — so they are retried, never trusted.

// Rollout outcome errors recorded per router in DeliveryReport.Err.
var (
	// ErrDeliveryAttempts: the retry budget ran out without one verified
	// installation.
	ErrDeliveryAttempts = errors.New("network: delivery attempts exhausted")
	// ErrDeliveryDeadline: the per-router deadline elapsed first.
	ErrDeliveryDeadline = errors.New("network: delivery deadline exceeded")
)

// LossyLink is a management path with injected faults: datagrams are
// dropped, bit-corrupted, or duplicated per fault.LinkFaults, routers
// listed in Dead receive nothing at all (a permanently unreachable device),
// and scheduled Partitions blackhole the whole link for virtual-time
// windows. Timing still follows the embedded Link.
//
// The link carries its own virtual clock: the delivery loops advance it as
// wire and backoff time accrue, so partition windows are evaluated against
// the same simulated seconds the reports account. A link is owned by one
// delivery loop at a time (the fleet control plane gives each router group
// its own link); the clock is not synchronized further.
type LossyLink struct {
	Link
	Faults fault.LinkFaults
	// Dead routers drop every datagram regardless of Faults.
	Dead map[string]bool
	// Partitions are scheduled blackhole windows evaluated against the
	// link's virtual clock at each Deliver.
	Partitions []fault.PartitionLink
	// Obs, when set, receives delivery telemetry (attempt/outcome counters,
	// wire/backoff second totals, verify-time histogram) from every retry
	// loop run over this link. Nil disables instrumentation at zero cost.
	Obs *obs.Collector

	inj *fault.Injector
	// clock is the link's virtual time in seconds (see SetClock/Advance).
	clock float64
	// partitionDrops counts datagrams blackholed by an active partition
	// window — kept apart from WireStats because a partition is scheduled
	// infrastructure failure, not per-datagram wire randomness.
	partitionDrops uint64
}

// SetClock positions the link's virtual clock (a rollout sets it to the
// wave's start time before delivering over the link).
func (l *LossyLink) SetClock(t float64) { l.clock = t }

// Clock reports the link's current virtual time in seconds.
func (l *LossyLink) Clock() float64 { return l.clock }

// Advance moves the link's virtual clock forward. The delivery loops call
// it as wire and backoff seconds accrue; dt <= 0 is ignored.
func (l *LossyLink) Advance(dt float64) {
	if dt > 0 {
		l.clock += dt
	}
}

// Partitioned reports whether a scheduled partition window blackholes the
// link at its current virtual time.
func (l *LossyLink) Partitioned() bool {
	for _, p := range l.Partitions {
		if p.Active(l.clock) {
			return true
		}
	}
	return false
}

// PartitionDrops counts datagrams blackholed by partition windows.
func (l *LossyLink) PartitionDrops() uint64 { return l.partitionDrops }

// NewLossyLink builds a lossy link over base with a deterministic fault
// stream drawn from seed.
func NewLossyLink(base Link, faults fault.LinkFaults, seed int64) *LossyLink {
	return &LossyLink{Link: base, Faults: faults, inj: fault.New(seed)}
}

// WireStats exposes the injector's ground-truth fault accounting (zero
// value when the link was built without an injector). Dead-router drops are
// not wire faults and are not counted here.
func (l *LossyLink) WireStats() fault.WireStats {
	if l.inj == nil {
		return fault.WireStats{}
	}
	return l.inj.WireStats()
}

// Deliver transports one datagram toward a device and returns what arrives:
// zero, one (possibly corrupted), or two copies.
func (l *LossyLink) Deliver(deviceID string, wire []byte) [][]byte {
	if l.Partitioned() {
		l.partitionDrops++
		return nil
	}
	if l.Dead[deviceID] {
		return nil
	}
	if l.inj == nil {
		return [][]byte{append([]byte(nil), wire...)}
	}
	return l.inj.Wire(wire, l.Faults)
}

// RetryPolicy bounds the per-router retry loop.
type RetryPolicy struct {
	// MaxAttempts is the transmission budget per router (>= 1).
	MaxAttempts int
	// BaseBackoffSeconds is the wait after the first failed attempt; it
	// doubles per attempt up to MaxBackoffSeconds.
	BaseBackoffSeconds float64
	MaxBackoffSeconds  float64
	// JitterFrac spreads each backoff uniformly over ±JitterFrac of its
	// nominal value (decorrelates fleet-wide retry storms).
	JitterFrac float64
	// DeadlineSeconds is the per-router budget in simulated seconds (wire
	// time + backoff); 0 disables the deadline.
	DeadlineSeconds float64
}

// DefaultRetryPolicy matches a WAN management path: 8 attempts, 100 ms
// initial backoff capped at 5 s, ±25% jitter, 60 s per-router deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:        8,
		BaseBackoffSeconds: 0.1,
		MaxBackoffSeconds:  5,
		JitterFrac:         0.25,
		DeadlineSeconds:    60,
	}
}

// backoff returns the jittered wait before transmission attempt+1.
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) float64 {
	b := p.BaseBackoffSeconds * math.Pow(2, float64(attempt-1))
	if p.MaxBackoffSeconds > 0 && b > p.MaxBackoffSeconds {
		b = p.MaxBackoffSeconds
	}
	if p.JitterFrac > 0 {
		b *= 1 + p.JitterFrac*(2*rng.Float64()-1)
	}
	return b
}

// FleetRollout is the outcome of a reliable fleet-wide installation.
type FleetRollout struct {
	Reports   []DeliveryReport
	Succeeded int
	Failed    int
	// TotalAttempts sums transmissions across the fleet.
	TotalAttempts int
}

// Converged reports whether every router installed successfully.
func (r FleetRollout) Converged() bool { return r.Failed == 0 }

// DistributeReliable programs every device over a lossy link, retrying
// per router with capped exponential backoff until the package verifies,
// the attempt budget runs out, or the router's deadline passes. A router
// that never converges is reported as failed — with its attempt count and
// error — while the rest of the fleet proceeds; only infrastructure errors
// (packaging itself failing) abort the rollout.
func DistributeReliable(op *core.Operator, devices []*core.Device, app *apps.App, link *LossyLink, pol RetryPolicy, seed int64) (FleetRollout, error) {
	var out FleetRollout
	if len(devices) == 0 {
		return out, fmt.Errorf("network: no devices to program")
	}
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	model := timing.NiosIIPrototype()
	for _, dev := range devices {
		wire, err := op.ProgramWire(dev.Public(), app)
		if err != nil {
			return out, fmt.Errorf("network: packaging for %s: %w", dev.ID, err)
		}
		rep := deliverWithRetry(dev, wire, link, pol, model, seed, (*core.Device).Install)
		out.Reports = append(out.Reports, rep)
		out.TotalAttempts += rep.Attempts
		if rep.Err == nil {
			out.Succeeded++
		} else {
			out.Failed++
		}
	}
	return out, nil
}

// installFunc is how a delivered package lands on the device: the
// destructive (*core.Device).Install for plain distribution, or
// (*core.Device).StageUpgrade for the staged rollout path — the retry loop
// is identical either way because both run the full verification pipeline.
type installFunc func(dev *core.Device, wire []byte) (*core.InstallReport, error)

// DeriveSeed folds a recipient identity into a delivery seed (FNV-1a), so
// every per-recipient retry loop draws jitter from its own stream. A shared
// stream would make the jitter sequence depend on delivery order across
// routers and links — per-call derivation is what makes fleet-scale replay
// byte-deterministic per seed whatever order the groups are walked in.
func DeriveSeed(seed int64, id string) int64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range []byte(id) {
		h = (h ^ uint64(b)) * prime
	}
	return seed ^ int64(h)
}

// DeliverReliable runs the capped-backoff retry loop for one recipient over
// a lossy link: transmit, apply every arriving copy until one verifies,
// back off with seeded jitter, give up when the attempt budget or the
// per-recipient deadline runs out. apply must return nil only after full
// verification — a corrupted datagram surfaces there exactly like an attack
// and is retried, never trusted. The link's virtual clock advances with the
// accrued wire and backoff seconds, so scheduled partition windows open and
// close while the loop runs.
func DeliverReliable(link *LossyLink, id string, wire []byte, pol RetryPolicy, seed int64, apply func(copy []byte) error) DeliveryReport {
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	rng := rand.New(rand.NewSource(DeriveSeed(seed, id)))
	rep := DeliveryReport{DeviceID: id}
	var lastErr error
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		rep.Attempts = attempt
		// The wire time is spent whether or not the package arrives: a
		// lost transfer is only discovered when the response times out.
		wireS := link.TransferSeconds(len(wire))
		rep.WireSeconds += wireS
		link.Advance(wireS)
		copies := link.Deliver(id, wire)
		if len(copies) == 0 {
			lastErr = fmt.Errorf("network: %s attempt %d: package lost in transit", id, attempt)
		}
		for _, c := range copies {
			if err := apply(c); err != nil {
				// Bit corruption surfaces as a signature/decrypt/parse
				// failure — exactly like an attack. Never trust it;
				// retransmit instead.
				lastErr = fmt.Errorf("network: %s attempt %d: %w", id, attempt, err)
				continue
			}
			// Converged. Duplicate copies of an already-installed
			// package are simply ignored by stopping here.
			rep.TotalSeconds = rep.WireSeconds + rep.BackoffSeconds
			return rep
		}
		// Accrue the backoff before the deadline check. The previous order
		// (check, then accrue) let attempt N+1 transmit even when the wait
		// preceding it had already blown the per-router budget — the report
		// then both overran DeadlineSeconds and overstated attempts.
		if attempt < pol.MaxAttempts {
			b := pol.backoff(attempt, rng)
			rep.BackoffSeconds += b
			link.Advance(b)
		}
		if pol.DeadlineSeconds > 0 && rep.WireSeconds+rep.BackoffSeconds > pol.DeadlineSeconds {
			rep.Err = fmt.Errorf("%w after %d attempts (%.2fs): %v",
				ErrDeliveryDeadline, attempt, rep.WireSeconds+rep.BackoffSeconds, lastErr)
			rep.TotalSeconds = rep.WireSeconds + rep.BackoffSeconds
			return rep
		}
	}
	rep.Err = fmt.Errorf("%w (%d attempts): %v", ErrDeliveryAttempts, pol.MaxAttempts, lastErr)
	rep.TotalSeconds = rep.WireSeconds + rep.BackoffSeconds
	return rep
}

// deliverWithRetry runs the per-router retry loop for one prepared package
// through the device's cryptographic install pipeline, adding the modeled
// control-processor verification time on success.
func deliverWithRetry(dev *core.Device, wire []byte, link *LossyLink, pol RetryPolicy, model timing.CostModel, seed int64, install installFunc) DeliveryReport {
	var inst *core.InstallReport
	rep := DeliverReliable(link, dev.ID, wire, pol, seed, func(c []byte) error {
		r, err := install(dev, c)
		if err == nil {
			inst = r
		}
		return err
	})
	if rep.Err == nil {
		rep.Install = inst
		rep.ProcessSeconds = model.EstimateOps(inst.Ops)
		rep.TotalSeconds = rep.WireSeconds + rep.ProcessSeconds + rep.BackoffSeconds
	}
	publishDelivery(link, &rep)
	return rep
}

// publishDelivery folds one finished delivery report into the link's
// collector. No-op (a handful of nil checks) when the link carries no
// collector — the management plane shares the data plane's disabled-hook
// contract.
func publishDelivery(link *LossyLink, rep *DeliveryReport) {
	reg := link.Obs.Registry()
	if reg == nil {
		return
	}
	reg.Counter("net_delivery_attempts_total").Add(uint64(rep.Attempts))
	reg.Gauge("net_wire_seconds_total").Add(rep.WireSeconds)
	reg.Gauge("net_backoff_seconds_total").Add(rep.BackoffSeconds)
	if rep.Err == nil {
		reg.Counter("net_deliveries_total").Inc()
		reg.Histogram("net_verify_seconds", obs.SecondsBuckets).Observe(rep.ProcessSeconds)
	} else {
		reg.Counter("net_delivery_failures_total").Inc()
	}
}

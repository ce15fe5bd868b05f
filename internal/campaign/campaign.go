// Package campaign implements the adversarial attack-campaign engine: a
// seeded, mutation-driven corpus of attack families run as deterministic
// fault injection against real monitored NPs behind the real shard.Plane
// (stepped, so every run is a pure function of its schedule), and the
// live threat classifier. The paper demonstrates *that* the
// hardware monitor detects its stack-smash attack; this package measures
// *how fast* and against *what diversity* — packets-to-detection
// distributions per family, and evasion depth for the mutants that slip
// through.
//
// Every campaign attacks through the front door: real crafted packets
// (stack-smash overflows carrying mutated payloads) processed by real
// monitored cores, traffic bursts aimed at the admission/ECN path, and
// collision probes against the live Merkle hash parameter. A campaign is a
// pure function of its Spec: the same seed reproduces the same mutation
// sequence, detection trajectory, and incident bytes.
package campaign

import (
	"encoding/binary"
	"fmt"

	"sdmmon/internal/apps"
	"sdmmon/internal/asm"
	"sdmmon/internal/attack"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
	"sdmmon/internal/shard"
	"sdmmon/internal/threat"
)

// Campaign families — the attack taxonomy from the related work.
const (
	// FamilyGadget mounts ROP-style gadget-chain control-flow attacks:
	// chains of legitimate app instruction sequences (R5Detect's family)
	// delivered through the stack-smash overflow, walking a duty staircase
	// until the classifier isolates the core.
	FamilyGadget = "gadget"
	// FamilyCollision runs a budget-capped partial-hash collision search
	// against the live Merkle parameter: seeded store variants probed until
	// one lands persistent corruption or the search budget exhausts.
	FamilyCollision = "collision"
	// FamilySlowDrip adaptively titrates the poison duty cycle against the
	// engine's EWMA baselines, finding the highest duty that stays at or
	// below LOW (the evasion frontier) before retreating.
	FamilySlowDrip = "slowdrip"
	// FamilyNoC aims malicious cross-shard traffic bursts at the plane's
	// admission/ECN path (LeMay & Gunter's NoC-firewall family): mutated
	// burst intensities straddling the congestion-detection threshold.
	FamilyNoC = "noc"
	// FamilyPoison trains the EWMA baseline with a slow ramp before
	// striking — the adversarial baseline-poisoning case FreezeAt exists
	// to contain.
	FamilyPoison = "poison"
	// FamilyBurst hits every core of one shard at full duty with an
	// arrival surge: the drill that drives the CRITICAL response battery
	// (rehash, zeroize staged bundles, lockdown) and the recovery after it.
	FamilyBurst = "burst"
	// FamilyRamp climbs one core's duty 1/8 → 1/4 → 1/2 → 1, walking the
	// classifier up the LOW → MEDIUM → HIGH staircase until core isolation
	// ends it.
	FamilyRamp = "ramp"
)

// Families lists the campaign families in canonical order.
func Families() []string {
	return []string{FamilyGadget, FamilyCollision, FamilySlowDrip, FamilyNoC, FamilyPoison,
		FamilyBurst, FamilyRamp}
}

// Config parameterizes a campaign; zero fields select family defaults.
// ResolveSpec turns a Config into the canonical wire Spec.
type Config struct {
	Family string
	Seed   int64
	// Shards and Cores size the plane; 0 selects 3 shards of 4 cores.
	Shards int
	Cores  int
	// Ticks is the campaign length in virtual ticks; 0 selects the family
	// default.
	Ticks int
	// PacketsPerTick is the plane-wide arrival rate; 0 selects 30 per
	// shard.
	PacketsPerTick int
	// Mutants sizes the mutation pool (gadget chains, noc bursts); 0
	// selects the family default.
	Mutants int
	// ProbeBudget / CycleBudget cap the collision family's search
	// (attack.SearchBudget semantics); 0 selects 192 probes, uncapped
	// cycles.
	ProbeBudget int
	CycleBudget uint64
	// Compression selects the Merkle compression: "sbox" (default — the
	// containment-bearing nonlinear compression) or "sum" (the paper's
	// collapse-prone arithmetic sum).
	Compression string
	// Duty, when > 0, pins the slowdrip family to a fixed duty cycle after
	// warmup instead of the adaptive titration — the regression fixture
	// for SlowDripDutyFloor.
	Duty float64
	// FreezeAt overrides the engine's baseline-freeze level; zero keeps
	// the campaign default (threat.Low). The poison family's FreezeAt
	// tests set threat.Critical to model an engine without containment.
	FreezeAt threat.Level
}

// The plane every campaign drives: each card serves serviceBudget packets
// per tick, above the nominal 30 arrivals per shard, so backpressure
// appears only under a genuine surge. Arrivals beyond the budget queue: a
// card holds cardQueue of them and marks (or drops, for not-ECT traffic)
// past cardMark, its per-core lanes splitting both evenly.
const (
	serviceBudget = 40
	cardQueue     = 64
	cardMark      = 32
	// Warmup is the clean ticks most families run before attacking, giving
	// the EWMA baselines a quiet floor (the poison family deliberately
	// skips it — training the baseline is its attack).
	Warmup = 12
)

// paramSalt derives the campaign's hidden hash parameter from the seed,
// distinct from the stream the shard and tenant model benches install
// (0x600D, npu.NewBenchNP).
const paramSalt = 0xCAFE

// MutantOutcome records one mutant's fate: what it was, how many packets
// it injected, whether the classifier caught it, and how deep it got.
type MutantOutcome struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"`
	// Tick is when the mutant first ran.
	Tick int `json:"tick"`
	// Packets it injected (attack packets, or extra arrivals for bursts).
	Packets int `json:"packets"`
	// Detected: the classifier reached the family's detection level while
	// this mutant was active (bursts), or the monitor alarmed on its
	// packets (code-carrying mutants).
	Detected bool `json:"detected"`
	// Depth is the family's evasion-depth metric for this mutant: matched
	// hash-prefix length for gadget chains, packets slipped for drips and
	// evading bursts.
	Depth int `json:"depth"`
}

// CollisionMetrics is the collision family's search-effort summary
// (attack.SearchStats without the host-timing WallSeconds, which must stay
// out of the deterministic replay bytes).
type CollisionMetrics struct {
	Attempts   int    `json:"attempts"`
	Cycles     uint64 `json:"cycles"`
	Exhausted  bool   `json:"exhausted"`
	Found      bool   `json:"found"`
	FoundProbe int    `json:"found_probe"` // -1 when the budget exhausted first
}

// SlowDripMetrics is the slowdrip family's titration summary.
type SlowDripMetrics struct {
	// FrontierDuty is the highest duty cycle the adaptive search sustained
	// at or below LOW.
	FrontierDuty float64 `json:"frontier_duty"`
	// SlippedPackets counts attack packets processed while the classifier
	// sat at or below LOW.
	SlippedPackets int64 `json:"slipped_packets"`
	Epochs         int   `json:"epochs"`
	Retreated      bool  `json:"retreated"`
}

// Result is everything a campaign run produced. ReplayBytes serializes it
// canonically; two runs of the same Spec must be byte-identical.
type Result struct {
	Family string `json:"family"`
	Seed   int64  `json:"seed"`
	Spec   Spec   `json:"spec"`

	Trajectory    []threat.LevelTransition `json:"trajectory"`
	Incidents     []threat.IncidentRecord  `json:"incidents"`
	IncidentBytes []byte                   `json:"incident_bytes"`
	Peak          threat.Level             `json:"peak"`
	Final         threat.Level             `json:"final"`
	Stats         shard.Ledger             `json:"stats"`

	// PacketsToLevel[l] is how many packets had arrived when the
	// classifier first reached level l; -1 if it never did.
	PacketsToLevel [threat.NumLevels]int64 `json:"packets_to_level"`
	// PacketsToDetect is the arrivals count when the classifier first
	// reached the family's detection level; -1 if the campaign evaded.
	PacketsToDetect int64 `json:"packets_to_detect"`

	// Mutants lists the mutants that sent at least one packet; Spec.Mutants
	// sizes the pool they were drawn from.
	Mutants         []MutantOutcome `json:"mutants"`
	MutantsDetected int             `json:"mutants_detected"`
	// EvasionDepth is the family's aggregate depth metric for undetected
	// mutants (mean matched prefix, frontier duty, or slipped packets).
	EvasionDepth float64 `json:"evasion_depth"`

	Collision *CollisionMetrics `json:"collision,omitempty"`
	SlowDrip  *SlowDripMetrics  `json:"slowdrip,omitempty"`

	// Response summary.
	IsolatedCores      int  `json:"isolated_cores"`
	FailedShards       int  `json:"failed_shards"`
	AdmissionTightened int  `json:"admission_tightened"`
	LockdownFired      bool `json:"lockdown_fired"`
	StagedZeroized     bool `json:"staged_zeroized"`
	StagedLeft         int  `json:"staged_left"`
}

// driver is one family's attack logic plugged into the shared chassis.
// Families embed quiet and override what they use.
type driver interface {
	// detectLevel is the threat level at which the family counts as
	// detected (PacketsToDetect latches when the classifier first reaches
	// it).
	detectLevel() threat.Level
	// attackCores names the cores of the attack shard that crafted packets
	// aim at.
	attackCores() []int
	// duty is the attack share of the attacked cores' packets at a tick.
	duty(t int) float64
	// surge returns extra ECT(0) arrivals aimed at a shard this tick.
	surge(t int) (shard, extra int)
	// craft produces the next attack packet for an attack slot and the
	// index of its row in c.res.Mutants (out of range for none); ok=false
	// downgrades the remaining slots this tick to clean traffic.
	craft(c *campaign, t, core int) (mi int, pkt []byte, ok bool, err error)
	// observe sees the attacked core's domain stats delta over the Step
	// that drained a crafted packet.
	observe(c *campaign, core int, d npu.Stats) error
	// afterTick runs once per tick with the engine's post-tick level.
	afterTick(c *campaign, t int, lvl threat.Level) error
	// finish fills family metrics into c.res after the last tick.
	finish(c *campaign)
}

// quiet is the driver that sends nothing; families embed it.
type quiet struct{}

func (quiet) attackCores() []int                                   { return nil }
func (quiet) duty(int) float64                                     { return 0 }
func (quiet) surge(int) (int, int)                                 { return -1, 0 }
func (quiet) craft(*campaign, int, int) (int, []byte, bool, error) { return 0, nil, false, nil }
func (quiet) observe(*campaign, int, npu.Stats) error              { return nil }
func (quiet) afterTick(*campaign, int, threat.Level) error         { return nil }

// rig is a set of monitored line cards running ipv4cm under one seed's
// hidden hash parameter, each NP publishing into its own collector.
type rig struct {
	prog    *asm.Program
	hasher  mhash.Hasher
	bin, gb []byte
	param   uint32
	nps     []*npu.NP
	cols    []*obs.Collector
}

func newRig(seed int64, compression string, shards, cores, events int) (*rig, error) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		return nil, err
	}
	mk, err := hasherMaker(compression)
	if err != nil {
		return nil, err
	}
	r := &rig{prog: prog, param: uint32(seed)*2654435761 + paramSalt}
	r.hasher = mk(r.param)
	g, err := monitor.Extract(prog, r.hasher)
	if err != nil {
		return nil, err
	}
	r.bin, r.gb = prog.Serialize(), g.Serialize()
	for i := 0; i < shards; i++ {
		// No per-core supervisor: the threat engine is the only quarantine
		// authority, so the trajectory measures its response alone.
		col := obs.New(events)
		np, err := npu.New(npu.Config{Cores: cores, MonitorsEnabled: true, Obs: col, NewHasher: mk})
		if err != nil {
			return nil, err
		}
		if err := np.InstallAll("ipv4cm", r.bin, r.gb, r.param); err != nil {
			return nil, err
		}
		r.nps, r.cols = append(r.nps, np), append(r.cols, col)
	}
	return r, nil
}

// campaign is the run state: the rig's NPs, each split into one-core
// protection domains, behind a stepped shard.Plane with one lane per core,
// watched by the threat.Sampler → Engine → PlaneResponder loop.
type campaign struct {
	*rig
	spec  Spec
	drv   driver
	plane *shard.Plane
	views [][]*npu.Domain // [shard][core]: the core's one-core domain
	gen   *packet.Generator
	rng   *rng
	smash attack.SmashConfig

	// core is the classifier's answer for the packet being submitted (a
	// stepped Submit is synchronous, so the campaign picks each lane).
	core int
	// atkShard is where crafted packets dispatch (-1 until aim fixes it).
	atkShard int
	// pending[shard] holds generated clean packets bound for that shard.
	pending [][][]byte
	// atkAcc is the attacked cores' duty-cycle error-diffusion accumulator;
	// atkTick counts this tick's attack packets (for slip accounting).
	atkAcc  map[int]float64
	atkTick int

	res Result
}

// aim reports whether a crafted packet's flow dispatches to the attack
// shard; the first packet aimed fixes that shard. An attacker targets one
// line card, so drivers keep only the mutants that land on it. Without a
// plane (the live drill's corpus) every packet counts as aimed.
func (c *campaign) aim(pkt []byte) bool {
	if c.plane == nil {
		return true
	}
	s := c.plane.ShardFor(shard.FlowKeyOf(pkt))
	if c.atkShard < 0 {
		c.atkShard = s
	}
	return s == c.atkShard
}

// activeCores lists a shard's non-quarantined cores, ascending.
func (c *campaign) activeCores(s int) []int {
	var out []int
	for core := 0; core < c.spec.Cores; core++ {
		if h, err := c.nps[s].CoreHealth(core); err == nil && h != npu.CoreQuarantined {
			out = append(out, core)
		}
	}
	return out
}

// scrubScratch zeroes a core's scratch region — the collision family's
// between-probe reset (the operator reimages after each detected probe;
// the attacker still wins the moment one store slips through first).
func (c *campaign) scrubScratch(s, core int) error {
	cr, err := c.nps[s].Core(core)
	if err != nil {
		return err
	}
	cr.Mem().WriteBytes(uint32(apps.ScratchBase), make([]byte, 2048))
	return nil
}

// RunCampaign resolves the config and executes one seeded campaign.
// Deterministic: same config, same result, byte for byte.
func RunCampaign(cfg Config) (*Result, error) {
	spec, err := ResolveSpec(cfg)
	if err != nil {
		return nil, err
	}
	return RunSpec(spec)
}

// RunSpec executes a campaign from its canonical resolved spec — the entry
// point replays use after decoding wire bytes.
func RunSpec(spec Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	r, err := newRig(spec.Seed, spec.Compression, spec.Shards, spec.Cores, 256)
	if err != nil {
		return nil, err
	}
	c := &campaign{
		rig: r, spec: spec,
		gen: packet.NewGenerator(spec.Seed), rng: newRNG(spec.Seed, "campaign-"+spec.Family),
		smash: attack.DefaultSmash(), atkShard: -1,
		pending: make([][][]byte, spec.Shards), atkAcc: map[int]float64{},
	}
	c.res = Result{Family: spec.Family, Seed: spec.Seed, Spec: spec, PacketsToDetect: -1}
	for l := range c.res.PacketsToLevel {
		c.res.PacketsToLevel[l] = -1
	}
	c.res.PacketsToLevel[threat.None] = 0

	// One one-core protection domain per core, and one plane lane per
	// domain: the batch engine picks among a domain's cores freely, so a
	// one-core lane is what lets the campaign aim a packet at a core.
	domains := make([]npu.DomainSpec, spec.Cores)
	names := make([]string, spec.Cores)
	for core := range domains {
		names[core] = fmt.Sprintf("core%d", core)
		domains[core] = npu.DomainSpec{Name: names[core], Cores: []int{core}}
	}
	for _, np := range c.nps {
		// Stage an upgrade bundle so the zeroize_staged response has
		// something real to discard.
		if err := np.StageInstallAll("ipv4cm", c.bin, c.gb, c.param); err != nil {
			return nil, err
		}
		if err := np.SetDomains(domains); err != nil {
			return nil, err
		}
		views := make([]*npu.Domain, spec.Cores)
		for core, name := range names {
			views[core], _ = np.Domain(name) // SetDomains just installed it
		}
		c.views = append(c.views, views)
	}
	c.plane, err = shard.NewPlane(shard.Config{
		NPs:           c.nps,
		QueueCapacity: max(1, cardQueue/spec.Cores),
		MarkThreshold: max(1, cardMark/spec.Cores),
		// One-packet batches: a Step serves the lanes round-robin.
		BatchSize: 1,
		Tenancy:   &shard.TenancyConfig{Tenants: names, Classify: func([]byte) int { return c.core }},
		Stepped:   true,
	})
	if err != nil {
		return nil, err
	}
	responder, err := threat.NewPlaneResponder(c.plane, c.nps)
	if err != nil {
		return nil, err
	}
	sampler, err := threat.NewSampler(threat.SamplerConfig{Plane: c.plane, NPs: c.nps})
	if err != nil {
		return nil, err
	}
	if c.drv, err = newDriver(c); err != nil {
		return nil, err
	}
	ecfg := threat.CampaignEngineConfig()
	ecfg.Responder = responder
	ecfg.Forensics = c.cols
	ecfg.StatsFn = c.statsMap
	if spec.FreezeAt != 0 {
		ecfg.FreezeAt = spec.FreezeAt
	}
	eng, err := threat.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}

	detectAt := c.drv.detectLevel()
	for t := 0; t < spec.Ticks; t++ {
		c.atkTick = 0
		if err := c.tick(t); err != nil {
			return nil, err
		}
		tr, err := eng.Tick(threat.Tick(t), sampler.Collect())
		if err != nil {
			return nil, err
		}
		// Responses fire inside Tick (rehash, lockdown, tightening); each
		// must keep the books balanced mid-run, in aggregate and per lane.
		ps := c.plane.Stats()
		if !ps.Conserved() {
			return nil, fmt.Errorf("campaign: %s packet conservation violated at tick %d: %+v", spec.Family, t, ps.Ledger)
		}
		for _, ts := range ps.Tenants {
			if !ts.Conserved() {
				return nil, fmt.Errorf("campaign: %s %s conservation violated at tick %d: %+v", spec.Family, ts.Name, t, ts.Ledger)
			}
		}
		if tr != nil && tr.To > tr.From {
			for l := tr.From + 1; l <= tr.To; l++ {
				if c.res.PacketsToLevel[l] < 0 {
					c.res.PacketsToLevel[l] = int64(ps.Arrived)
				}
			}
			if tr.To >= detectAt && c.res.PacketsToDetect < 0 {
				c.res.PacketsToDetect = int64(ps.Arrived)
			}
		}
		lvl := eng.Level()
		c.res.Peak = max(c.res.Peak, lvl)
		if err := c.drv.afterTick(c, t, lvl); err != nil {
			return nil, err
		}
	}

	c.res.Trajectory = eng.Trajectory()
	c.res.Incidents = eng.Incidents()
	if c.res.IncidentBytes, err = eng.IncidentBytes(); err != nil {
		return nil, err
	}
	c.res.Final = eng.Level()
	c.summarize()
	c.drv.finish(c)
	// A mutant that never sent a packet was never tried: it is neither a
	// detection nor an evasion, so it leaves the tally (ramp's duty-1 row
	// after core 1 is isolated, for one).
	sent := c.res.Mutants[:0]
	for _, m := range c.res.Mutants {
		if m.Packets == 0 {
			continue
		}
		sent = append(sent, m)
		if m.Detected {
			c.res.MutantsDetected++
		}
	}
	c.res.Mutants = sent
	return &c.res, nil
}

// summarize reads the response summary back from what the responses left:
// the actions on the engine's escalations, the quarantined cores and
// staged bundles on the NPs, and the plane's failovers and ledger.
func (c *campaign) summarize() {
	for _, tr := range c.res.Trajectory {
		for _, a := range tr.Actions {
			c.res.AdmissionTightened += b2i(a == threat.ActTightenAdmission.String())
			c.res.StagedZeroized = c.res.StagedZeroized || a == threat.ActZeroizeStaged.String()
			c.res.LockdownFired = c.res.LockdownFired || a == threat.ActLockdown.String()
		}
	}
	for _, np := range c.nps {
		for core := 0; core < c.spec.Cores; core++ {
			h, _ := np.CoreHealth(core)
			c.res.IsolatedCores += b2i(h == npu.CoreQuarantined)
			c.res.StagedLeft += b2i(np.HasStaged(core))
		}
	}
	ps := c.plane.Stats()
	c.res.FailedShards = int(ps.Failovers)
	c.res.Stats = ps.Ledger
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Check asserts the family's expected outcome — the self-assertions the
// npsim -campaign drill exits non-zero on. When Spec.FreezeAt overrides
// the campaign default, only the structural invariants are enforced: the
// override exists precisely to study degraded-containment trajectories.
func (r *Result) Check() error {
	if !r.Stats.Conserved() {
		return fmt.Errorf("campaign: %s packet conservation violated: %+v", r.Family, r.Stats)
	}
	if r.Spec.FreezeAt != 0 {
		return nil
	}
	switch r.Family {
	case FamilyGadget:
		return checkGadget(r)
	case FamilyCollision:
		return checkCollision(r)
	case FamilySlowDrip:
		return checkSlowDrip(r)
	case FamilyNoC:
		return checkNoC(r)
	case FamilyPoison:
		return checkPoison(r)
	case FamilyBurst:
		return checkBurst(r)
	case FamilyRamp:
		return checkRamp(r)
	}
	return fmt.Errorf("campaign: unknown family %q", r.Family)
}

// statsMap feeds the engine's incident stats-delta capture.
func (c *campaign) statsMap() map[string]uint64 {
	l := c.plane.Stats().Ledger
	return map[string]uint64{
		"arrived": l.Arrived, "forwarded": l.Forwarded, "app_drops": l.AppDrops,
		"tail_drops": l.TailDrops, "marked": l.Marked, "starved": l.Starved,
	}
}

// tick drives one virtual time step through the plane. Each live shard
// gets its share of the clean arrivals, dealt round-robin over its active
// cores; on the attack shard the attacked cores spend their duty share of
// those packets on crafted ones, each submitted first and drained by its
// own one-packet Step. The clean arrivals and the family's surge follow
// in waves of one packet per core, each wave drained while the card's
// service budget lasts, so only arrivals beyond the budget queue. Last,
// every card drains its backlog with what is left of the budget (and a
// failed card sheds its rings).
func (c *campaign) tick(t int) error {
	var live []int
	for _, sh := range c.plane.Stats().Shards {
		if !sh.Failed {
			live = append(live, sh.Shard)
		}
	}
	surgeAt, extra := c.drv.surge(t)
	tokens := make([]int, c.spec.Shards)
	for i, s := range live {
		tokens[s] = serviceBudget
		active := c.activeCores(s)
		if len(active) == 0 {
			// Every core is isolated: the lanes fail over as they drain.
			for core := 0; core < c.spec.Cores; core++ {
				active = append(active, core)
			}
		}
		clean := c.clean(s, c.spec.PacketsPerTick/len(live)+b2i(i < c.spec.PacketsPerTick%len(live)))
		cores := make([]int, len(clean))
		quota := map[int]int{}
		for k := range clean {
			cores[k] = active[k%len(active)]
			quota[cores[k]]++
		}
		if s == c.atkShard && !c.plane.LockedDown() {
			for _, core := range c.drv.attackCores() {
				sent, err := c.attack(t, s, core, quota[core], &tokens[s])
				if err != nil {
					return err
				}
				// The crafted packets took the core's first clean slots.
				for k := 0; sent > 0 && k < len(clean); k++ {
					if cores[k] == core {
						clean[k], sent = nil, sent-1
					}
				}
			}
		}
		if s == surgeAt {
			for _, pkt := range c.clean(s, extra) {
				clean, cores = append(clean, ect0(pkt)), append(cores, active[len(cores)%len(active)])
			}
		}
		wave := 0
		for k, pkt := range clean {
			if pkt != nil {
				c.core = cores[k]
				c.plane.Submit(pkt)
				wave++
			}
			if wave == len(active) || k == len(clean)-1 {
				if err := c.step(s, min(tokens[s], wave), &tokens[s]); err != nil {
					return err
				}
				wave = 0
			}
		}
	}
	for s := range tokens {
		if err := c.step(s, tokens[s], &tokens[s]); err != nil {
			return err
		}
	}
	return nil
}

// step drains up to budget packets from a card, charging them to its
// service tokens (the plane's batches are one packet each).
func (c *campaign) step(s, budget int, tokens *int) error {
	batches, err := c.plane.Step(s, budget)
	*tokens -= len(batches)
	return err
}

// attack submits a core's duty share of its quota as crafted packets, each
// drained by a one-packet Step and observed through the core's domain
// stats, and returns how many it sent.
func (c *campaign) attack(t, s, core, quota int, tokens *int) (int, error) {
	if h, err := c.nps[s].CoreHealth(core); err != nil || h == npu.CoreQuarantined {
		return 0, err
	}
	c.atkAcc[core] += c.drv.duty(t) * float64(quota)
	n := min(int(c.atkAcc[core]), quota)
	c.atkAcc[core] -= float64(int(c.atkAcc[core]))
	for sent := 0; sent < n; sent++ {
		mi, pkt, ok, err := c.drv.craft(c, t, core)
		if err != nil || !ok {
			return sent, err
		}
		before := c.views[s][core].Stats()
		c.core = core
		c.plane.Submit(pkt)
		if err := c.step(s, 1, tokens); err != nil {
			return sent, err
		}
		after := c.views[s][core].Stats()
		c.atkTick++
		d := npu.Stats{
			Alarms: after.Alarms - before.Alarms,
			Faults: after.Faults - before.Faults,
			Cycles: after.Cycles - before.Cycles,
		}
		if mi >= 0 && mi < len(c.res.Mutants) {
			o := &c.res.Mutants[mi]
			if o.Tick < 0 {
				o.Tick = t
			}
			o.Packets++
			o.Detected = o.Detected || d.Alarms > 0
		}
		if err := c.drv.observe(c, core, d); err != nil {
			return sent + 1, err
		}
	}
	return n, nil
}

// clean returns the next n clean packets whose flows dispatch to shard s.
// The generator's stream is dealt to per-shard queues by flow, so every
// live shard gets exactly its share of a tick's arrivals.
func (c *campaign) clean(s, n int) [][]byte {
	for draws := 0; len(c.pending[s]) < n && draws < 1024; draws++ {
		pkt := c.gen.Next()
		if to := c.plane.ShardFor(shard.FlowKeyOf(pkt)); to >= 0 {
			c.pending[to] = append(c.pending[to], pkt)
		}
	}
	n = min(n, len(c.pending[s]))
	out := c.pending[s][:n:n]
	c.pending[s] = c.pending[s][n:]
	return out
}

// ect0 marks a clean packet ECN-capable (ECT(0)) and refreshes its header
// checksum: surges are ECN floods, which the plane CE-marks past the
// threshold rather than dropping.
func ect0(pkt []byte) []byte {
	pkt[1] = pkt[1]&^0x3 | 0x2
	binary.BigEndian.PutUint16(pkt[10:], packet.Checksum(pkt[:int(pkt[0]&0xF)*4]))
	return pkt
}

func hasherMaker(compression string) (func(uint32) mhash.Hasher, error) {
	switch compression {
	case "sum":
		return func(p uint32) mhash.Hasher { return mhash.NewMerkle(p) }, nil
	case "sbox", "":
		return func(p uint32) mhash.Hasher {
			h, err := mhash.NewMerkleWith(p, 4, mhash.SBoxCompress())
			if err != nil {
				panic(err) // width 4 is always valid
			}
			return h
		}, nil
	}
	return nil, fmt.Errorf("campaign: unknown compression %q (want sum or sbox)", compression)
}

func newDriver(c *campaign) (driver, error) {
	switch c.spec.Family {
	case FamilyGadget:
		return newGadgetDriver(c)
	case FamilyCollision:
		return newCollisionDriver(c)
	case FamilySlowDrip:
		return newSlowDripDriver(c)
	case FamilyNoC:
		return newNoCDriver(c)
	case FamilyPoison, FamilyBurst, FamilyRamp:
		return newPhaseDriver(c)
	}
	return nil, fmt.Errorf("campaign: unknown family %q", c.spec.Family)
}

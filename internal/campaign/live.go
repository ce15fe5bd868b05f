package campaign

import (
	"fmt"
	"sync"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/monitor"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
	"sdmmon/internal/shard"
	"sdmmon/internal/threat"
)

// RunLive fires a campaign's attack corpus at the *real* concurrent
// traffic plane: shard.Plane workers race submitter goroutines while the
// live Sampler → Engine → PlaneResponder loop classifies and responds.
// The concurrent plane cannot promise byte-identity (and does not try —
// that is the model chassis's job); what it must promise, and what this
// drill checks at every tick, is packet conservation and a sane graded
// response while attack packets, clean traffic, and responses interleave.
// Run it under -race.

// LiveConfig sizes the live drill.
type LiveConfig struct {
	Shards int // 0 selects 3
	Cores  int // 0 selects 2
	Ticks  int // 0 selects 24
	Seed   int64
	// AttackPerTick crafted gadget packets join each attack-phase tick;
	// 0 selects 8.
	AttackPerTick int
}

// LiveResult summarizes a live drill.
type LiveResult struct {
	Peak          threat.Level
	Final         threat.Level
	Escalated     bool
	Incidents     int
	IsolatedCores int
	Stats         shard.PlaneStats
}

// RunLive executes the drill. Every mid-run conservation violation is an
// error, not a statistic.
func RunLive(cfg LiveConfig) (*LiveResult, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 3
	}
	if cfg.Cores == 0 {
		cfg.Cores = 2
	}
	if cfg.Ticks == 0 {
		cfg.Ticks = 24
	}
	if cfg.AttackPerTick == 0 {
		cfg.AttackPerTick = 8
	}

	app, err := apps.ByName("ipv4cm")
	if err != nil {
		return nil, err
	}
	prog, err := app.Program()
	if err != nil {
		return nil, err
	}
	mk, err := hasherMaker("sbox")
	if err != nil {
		return nil, err
	}
	param := uint32(cfg.Seed)*2654435761 + paramSalt
	g, err := monitor.Extract(prog, mk(param))
	if err != nil {
		return nil, err
	}
	bin, gb := prog.Serialize(), g.Serialize()

	cols := make([]*obs.Collector, cfg.Shards)
	nps := make([]*npu.NP, cfg.Shards)
	for i := range nps {
		cols[i] = obs.New(64)
		np, err := npu.New(npu.Config{Cores: cfg.Cores, MonitorsEnabled: true, Obs: cols[i], NewHasher: mk})
		if err != nil {
			return nil, err
		}
		if err := np.InstallAll(app.Name, bin, gb, param); err != nil {
			return nil, err
		}
		nps[i] = np
	}
	plane, err := shard.NewPlane(shard.Config{
		NPs:           nps,
		QueueCapacity: 32,
		MarkThreshold: 16,
		BatchSize:     8,
	})
	if err != nil {
		return nil, err
	}
	defer plane.Close()
	responder, err := threat.NewPlaneResponder(plane, nps)
	if err != nil {
		return nil, err
	}
	sampler, err := threat.NewSampler(threat.SamplerConfig{Plane: plane, NPs: nps})
	if err != nil {
		return nil, err
	}
	ecfg := threat.CampaignEngineConfig()
	ecfg.Responder = responder
	ecfg.Forensics = cols
	eng, err := threat.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}

	// Attack corpus: seeded gadget-chain packets through the stack-smash
	// overflow, identical to the model campaign's mutants.
	c := &campaign{
		spec:   Spec{Family: FamilyGadget, Seed: cfg.Seed, Mutants: 8, Shards: cfg.Shards, Cores: cfg.Cores},
		rng:    newRNG(cfg.Seed, "campaign-live"),
		prog:   prog,
		hasher: mk(param),
	}
	c.smash = attack.DefaultSmash()
	gd, err := newGadgetDriver(c)
	if err != nil {
		return nil, err
	}
	atk := gd.(*gadgetDriver).pkts

	gen := packet.NewGenerator(cfg.Seed)
	var genMu sync.Mutex
	next := func() []byte {
		genMu.Lock()
		defer genMu.Unlock()
		return gen.Next()
	}
	submit := func(n, workers int, attacking bool) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/workers; i++ {
					plane.Submit(next())
				}
				if attacking && w == 0 {
					for i := 0; i < cfg.AttackPerTick; i++ {
						plane.Submit(atk[i%len(atk)])
					}
				}
			}()
		}
		wg.Wait()
	}

	res := &LiveResult{}
	for tick := 0; tick < cfg.Ticks; tick++ {
		attacking := tick >= cfg.Ticks/3
		submit(30*cfg.Shards, 3, attacking)
		tr, err := eng.Tick(threat.Tick(tick), sampler.Collect())
		if err != nil {
			return nil, err
		}
		if tr != nil && tr.To > tr.From {
			res.Escalated = true
		}
		if lvl := eng.Level(); lvl > res.Peak {
			res.Peak = lvl
		}
		if st := plane.Stats(); !st.Conserved() {
			return nil, fmt.Errorf("campaign live: conservation violated at tick %d: %+v", tick, st)
		}
	}
	plane.Close()
	st := plane.Stats()
	if !st.Conserved() {
		return nil, fmt.Errorf("campaign live: conservation violated after close: %+v", st)
	}
	res.Stats = st
	res.Final = eng.Level()
	res.Incidents = len(eng.Incidents())
	for _, np := range nps {
		for core := 0; core < cfg.Cores; core++ {
			if h, err := np.CoreHealth(core); err == nil && h == npu.CoreQuarantined {
				res.IsolatedCores++
			}
		}
	}
	return res, nil
}

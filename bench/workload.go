package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"sdmmon/internal/apps"
	"sdmmon/internal/asm"
	"sdmmon/internal/attack"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/npu"
	"sdmmon/internal/packet"
)

// Plane shape shared by every workload. QueueCapacity and MarkThreshold
// equal the load generator's outstanding-packet window, so a correct run
// neither tail-drops nor drops for marking.
const (
	poolSize       = 16384
	chunk          = 256  // packets per SubmitBatch
	maxOutstanding = 4096 // most packets the load generator keeps outstanding
	flowCount      = 256
	npCores        = 2
	attackEach     = 50 // attack-mix: every 50th packet is the stack smash
	// recorded is how many pool packets the layer replays record; a
	// multiple of attackEach, so attack-mix records whole attack periods.
	recorded = 4000
)

// lane is one application on the plane: the whole NP for an untenanted
// workload, one tenant's protection domain otherwise.
type lane struct {
	tenant string // "" for the untenanted plane
	app    string
	param  uint32
	cores  []int
	batch  int
	rules  []apps.ACLRule
}

// workload is one traffic mix and the plane it runs on.
type workload struct {
	name  string
	lanes []lane
	// packet builds pool packet i from the flow table.
	packet func(rng *rand.Rand, fl []flow, i int) []byte
	// attack reports whether pool packet i is an attack.
	attack func(i int) bool
	// laneOf is the tenant classifier: which lane a packet belongs to.
	laneOf func(pkt []byte) int
}

func (w *workload) tenanted() bool { return w.lanes[0].tenant != "" }

// aclRules are 32 /24 deny rules inside 172.16.0.0/16. Every generated
// source is in 10.0.0.0/8, so each packet walks the whole table and is
// forwarded by the default rule.
func aclRules() []apps.ACLRule {
	rules := make([]apps.ACLRule, apps.ACLMaxRules)
	for i := range rules {
		rules[i] = apps.ACLRule{Prefix: 0xAC10_0000 | uint32(i)<<8, Mask: 0xFFFF_FF00}
	}
	return rules
}

// workloads lists the benchmark's traffic mixes; BENCHMARK.json records why
// each was chosen. Every one runs on a single 2-core NP, so the plane's
// goroutines fit a 2-CPU host.
func workloads() []*workload {
	never := func(int) bool { return false }
	lane0 := func([]byte) int { return 0 }
	both := []int{0, 1}
	return []*workload{
		{
			name:  "fwd-min",
			lanes: []lane{{app: "ipv4cm", param: 0x5EED0001, cores: both, batch: 64}},
			packet: func(rng *rand.Rand, fl []flow, i int) []byte {
				return fl[rng.Intn(len(fl))].packet(rng, 8, 0)
			},
			attack: never, laneOf: lane0,
		},
		{
			name:  "acl-deep",
			lanes: []lane{{app: "acl", param: 0x5EED0002, cores: both, batch: 256, rules: aclRules()}},
			packet: func(rng *rand.Rand, fl []flow, i int) []byte {
				return fl[rng.Intn(len(fl))].packet(rng, 16+rng.Intn(241), 0)
			},
			attack: never, laneOf: lane0,
		},
		{
			name:  "attack-mix",
			lanes: []lane{{app: "ipv4cm", param: 0x5EED0003, cores: both, batch: 256}},
			packet: func(rng *rand.Rand, fl []flow, i int) []byte {
				if i%attackEach == attackEach-1 {
					return smashPacket()
				}
				return fl[rng.Intn(len(fl))].packet(rng, 16+rng.Intn(241), 2)
			},
			attack: func(i int) bool { return i%attackEach == attackEach-1 },
			laneOf: lane0,
		},
		{
			name: "tenant-split",
			lanes: []lane{
				{tenant: "a", app: "ipv4cm", param: 0x5EED0004, cores: []int{0}, batch: 64},
				{tenant: "b", app: "udpecho", param: 0x5EED0005, cores: []int{1}, batch: 64},
			},
			// Even packets are UDP (tenant b) and odd ones TCP (tenant a),
			// so each tenant carries exactly half the pool on every seed.
			packet: func(rng *rand.Rand, fl []flow, i int) []byte {
				half := len(fl) / 2
				return fl[(i%2)*half+rng.Intn(half)].packet(rng, 16+rng.Intn(241), 0)
			},
			attack: never,
			laneOf: func(pkt []byte) int {
				if len(pkt) > 9 && pkt[9] == packet.ProtoUDP {
					return 1
				}
				return 0
			},
		},
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// flow is one 5-tuple. The first half of a flow table is UDP, the second
// half TCP.
type flow struct {
	src, dst     [4]byte
	sport, dport uint16
	proto        uint8
}

func makeFlows(rng *rand.Rand) []flow {
	fl := make([]flow, flowCount)
	for i := range fl {
		fl[i] = flow{
			src:   packet.IP(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(254))),
			dst:   packet.IP(192, 168, byte(rng.Intn(256)), byte(1+rng.Intn(254))),
			sport: uint16(1024 + rng.Intn(60000)),
			dport: uint16(1 + rng.Intn(1024)),
			proto: packet.ProtoUDP,
		}
		if i >= flowCount/2 {
			fl[i].proto = packet.ProtoTCP
		}
	}
	return fl
}

// packet builds one datagram of this flow with an IP payload of l bytes
// (at least 8: the port pair leads it, so the plane hashes the flow) and
// optWords benign IP option words. The ECN bits are clear (not-ECT).
func (f flow) packet(rng *rand.Rand, l, optWords int) []byte {
	payload := make([]byte, l)
	rng.Read(payload)
	if f.proto == packet.ProtoUDP {
		payload = (&packet.UDP{SrcPort: f.sport, DstPort: f.dport, Payload: payload[8:]}).Marshal()
	} else {
		binary.BigEndian.PutUint16(payload[0:], f.sport)
		binary.BigEndian.PutUint16(payload[2:], f.dport)
	}
	var opts []byte
	if optWords > 0 {
		opts = make([]byte, 4*optWords)
		rng.Read(opts)
		opts[0] = 0x44 // timestamp-like option type; the content is not parsed
	}
	p := &packet.IPv4{
		TOS:     uint8(rng.Intn(256)) &^ 0x3,
		ID:      uint16(rng.Intn(65536)),
		TTL:     uint8(2 + rng.Intn(62)),
		Proto:   f.proto,
		Src:     f.src,
		Dst:     f.dst,
		Options: opts,
		Payload: payload,
	}
	b, err := p.Marshal()
	if err != nil {
		panic(err) // sizes are in range by construction
	}
	return b
}

var (
	smashOnce  sync.Once
	smashBytes []byte
)

// smashPacket is the E8 stack smash against ipv4cm (attack.DefaultSmash
// carrying its hijack payload). Every attack in the pool is this packet.
func smashPacket() []byte {
	smashOnce.Do(func() {
		cfg := attack.DefaultSmash()
		code, err := cfg.HijackPayload()
		if err == nil {
			smashBytes, err = cfg.CraftPacket(code)
		}
		if err != nil {
			panic(err)
		}
	})
	return append([]byte(nil), smashBytes...)
}

// pool is the generated traffic with the oracle's verdicts.
type pool struct {
	pkts   [][]byte
	lane   []int
	attack []bool
	// fwd and alarm are the oracle's expected outcome of each packet.
	fwd, alarm []bool
}

// makePool generates the pool from the seed alone (no oracle yet).
func (w *workload) makePool(seed int64, n int) *pool {
	rng := rand.New(rand.NewSource(seed))
	fl := makeFlows(rng)
	p := &pool{pkts: make([][]byte, n), lane: make([]int, n), attack: make([]bool, n)}
	for i := range p.pkts {
		p.pkts[i] = w.packet(rng, fl, i)
		p.lane[i] = w.laneOf(p.pkts[i])
		p.attack[i] = w.attack(i)
	}
	return p
}

// build assembles the lane's application and extracts its monitoring
// graph under the lane's hash parameter.
func (l lane) build() (*asm.Program, *monitor.Graph, error) {
	app, err := apps.ByName(l.app)
	if err != nil {
		return nil, nil, err
	}
	prog, err := app.Program()
	if err != nil {
		return nil, nil, err
	}
	g, err := monitor.Extract(prog, mhash.NewMerkle(l.param))
	return prog, g, err
}

// bundle is the lane's serialized binary and monitoring graph.
func (l lane) bundle() (binary, graph []byte, err error) {
	prog, g, err := l.build()
	if err != nil {
		return nil, nil, err
	}
	return prog.Serialize(), g.Serialize(), nil
}

// core is a fresh core running the lane's application, ACL rules loaded.
func (l lane) core() (*apps.Core, error) {
	prog, _, err := l.build()
	if err != nil {
		return nil, err
	}
	c := apps.NewCore(prog)
	if l.rules != nil {
		apps.InstallACLRules(c, l.rules)
	}
	return c, nil
}

// monitor builds the NP's fast-path monitor for the lane: the packed graph
// fed by a word-keyed FastHasher, exactly as npu installs it.
func (l lane) monitor() (*monitor.PackedMonitor, *mhash.FastHasher, error) {
	_, g, err := l.build()
	if err != nil {
		return nil, nil, err
	}
	packed, err := monitor.Pack(g)
	if err != nil {
		return nil, nil, err
	}
	fast := mhash.NewFast(mhash.NewMerkle(l.param), mhash.DefaultFastCacheBits)
	m, err := monitor.NewPacked(packed, fast)
	return m, fast, err
}

// installRules loads the lane's ACL table into every core of an NP (a
// no-op for lanes without rules; only untenanted lanes carry rules).
func (l lane) installRules(np *npu.NP) error {
	if l.rules == nil {
		return nil
	}
	for id := 0; id < np.Cores(); id++ {
		c, err := np.Core(id)
		if err != nil {
			return err
		}
		apps.InstallACLRules(c, l.rules)
	}
	return nil
}

// oracle fills in every packet's expected outcome from the reference NP:
// the map-based NFA monitor over an uncached hash unit. It refuses a pool
// whose attacks the reference does not catch, or that hijacks the core,
// because no measured run of such a pool could be correct.
func (w *workload) oracle(p *pool) error {
	n := len(p.pkts)
	p.fwd, p.alarm = make([]bool, n), make([]bool, n)
	for li, l := range w.lanes {
		bin, graph, err := l.bundle()
		if err != nil {
			return err
		}
		ref, err := npu.New(npu.Config{Cores: npCores, MonitorsEnabled: true, Reference: true})
		if err != nil {
			return err
		}
		if err := ref.InstallAll(l.app, bin, graph, l.param); err != nil {
			return err
		}
		if err := l.installRules(ref); err != nil {
			return err
		}
		var idx []int
		for i := range p.pkts {
			if p.lane[i] == li {
				idx = append(idx, i)
			}
		}
		for lo := 0; lo < len(idx); lo += chunk {
			part := idx[lo:min(lo+chunk, len(idx))]
			batch := make([][]byte, len(part))
			for j, i := range part {
				batch[j] = p.pkts[i]
			}
			res, err := ref.ProcessBatch(batch, 0)
			if err != nil {
				return fmt.Errorf("%s: oracle: %w", w.name, err)
			}
			for j, i := range part {
				r := res[j]
				p.fwd[i] = r.Verdict == apps.VerdictForward && !r.Detected && !r.Faulted
				p.alarm[i] = r.Detected
				if p.attack[i] && (!r.Detected || hijacked(r.Verdict, r.Packet)) {
					return fmt.Errorf("%s: reference monitor missed the attack at packet %d", w.name, i)
				}
			}
		}
	}
	return nil
}

// hijacked reports the stack smash's success: forwarded to the attacker's
// sink address.
func hijacked(verdict int, out []byte) bool {
	return attack.Succeeded(apps.PacketResult{Verdict: verdict, Packet: out})
}

package campaign

// Tenant-isolation drill (ROADMAP item 4 leftover, closed by ISSUE 10):
// the gadget and noc attack families fired at ONE tenant of a partitioned
// plane, with a bystander tenant's entire world — per-tenant counters,
// domain statistics, installed software, telemetry bytes — required to be
// byte-identical to a control run in which the attack never happened.
//
// Unlike the family campaigns, which drive a stepped plane one virtual
// tick at a time, this drill runs the concurrent multi-tenant stack end to
// end: a tenant.Manager
// partitions two real NPs into protection domains, the shard plane
// dispatches by flow class onto per-tenant lanes, and the attacks arrive
// as crafted packets through the front door:
//
//   - noc: a flood of victim-class flows slams the victim tenant's
//     contracted admission (per-tenant soft capacity), producing ECN marks
//     and tail drops on the victim's lanes only — the per-tenant admission
//     gate is LeMay & Gunter's NoC firewall at the ingress plane;
//   - gadget: the paper's stack-smash hijack, re-addressed into the victim
//     tenant's flow space, alarms the victim's monitors until the
//     supervisor quarantines the victim's cores and the victim's lanes
//     fail over.
//
// The bystander tenant runs a different application (udpecho) on its own
// cores throughout, and its packet program is deliberately insensitive to
// queue depth, so its counters are a pure function of its own traffic —
// any cross-tenant interference at all shows up as a byte diff.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"time"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
	"sdmmon/internal/shard"
	"sdmmon/internal/tenant"
)

// Drill shape. The victim's contracted admission is small enough that the
// noc flood must overflow it; the bystander's full budget fits in its
// physical ring so its run is loss-free and deterministic.
const (
	tdShards        = 2
	tdCores         = 4 // per NP: victim owns 0,1; bystander owns 2,3
	tdQueueCap      = 1024
	tdVictimCap     = 32
	tdVictimMark    = 16
	tdCleanPkts     = 200 // per tenant, outside attack phases
	tdSurgePkts     = 600 // noc flood aimed at the victim class
	tdSmashPkts     = 64  // gadget hijack packets
	tdVictim        = 0
	tdBystander     = 1
	tdVictimName    = "victim"
	tdBystanderName = "bystander"
)

// TenantDrillRun is one environment's outcome (hostile or control).
type TenantDrillRun struct {
	Victim    shard.TenantStats
	Bystander shard.TenantStats
	// BystanderBytes is the canonical serialization of every tenant-labeled
	// series belonging to the bystander.
	BystanderBytes []byte
	// BystanderDomains is the bystander's per-NP domain account.
	BystanderDomains []npu.Stats
	// VictimQuarantines sums supervisor quarantines inside the victim's
	// domains.
	VictimQuarantines uint64
}

// tdClassify maps the source address's second octet to the tenant index.
func tdClassify(pkt []byte) int {
	if len(pkt) < 20 {
		return -1
	}
	return int(pkt[13])
}

// tdCleanPkt builds one valid tenant-classed UDP packet.
func tdCleanPkt(tenantIdx int, flow uint16) ([]byte, error) {
	u := &packet.UDP{SrcPort: 2000 + flow, DstPort: 53, Payload: []byte("tenant-drill")}
	p := &packet.IPv4{
		TTL: 64, Proto: packet.ProtoUDP,
		Src:     packet.IP(10, byte(tenantIdx), 0, byte(flow)),
		Dst:     packet.IP(192, 168, 0, 1),
		Payload: u.Marshal(),
	}
	return p.Marshal()
}

// tdRetag moves a crafted packet into a tenant's flow space: rewrite the
// source address's tenant octet and repair the IPv4 header checksum. This
// models the realistic adversary — the attack arrives on the victim's own
// ingress class, because that is the only place the dispatcher will send
// it to the victim's cores.
func tdRetag(pkt []byte, tenantIdx int) []byte {
	out := append([]byte(nil), pkt...)
	out[13] = byte(tenantIdx)
	binary.BigEndian.PutUint16(out[10:], packet.Checksum(out[:int(out[0]&0x0F)*4]))
	return out
}

// drainTenant blocks until a tenant's queues are empty (or its lanes have
// failed over and shed them) — the drill's phase pacing, so attack packets
// actually reach cores instead of tail-dropping behind the previous burst.
func drainTenant(plane *shard.Plane, tenantIdx int) error {
	for i := 0; i < 200000; i++ {
		ts, err := plane.TenantStatsFor(tenantIdx)
		if err != nil {
			return err
		}
		if ts.Backlog == 0 {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("campaign: tenant %d backlog never drained", tenantIdx)
}

// runTenantEnv builds one two-tenant environment and drives it through the
// drill's traffic schedule. hostile adds the attack phases; everything the
// bystander experiences is identical either way.
func runTenantEnv(seed int64, hostile bool) (*TenantDrillRun, error) {
	col := obs.New(256)
	nps := make([]*npu.NP, tdShards)
	for i := range nps {
		np, err := npu.New(npu.Config{
			Cores:           tdCores,
			MonitorsEnabled: true,
			Supervisor:      npu.SupervisorConfig{Window: 16, Threshold: 4, ProbationPackets: 8},
			Obs:             col,
			Instance:        fmt.Sprintf("np%d", i),
		})
		if err != nil {
			return nil, err
		}
		nps[i] = np
	}
	mgr, err := tenant.New(tenant.Config{
		NPs: nps,
		Specs: []tenant.Spec{
			{Name: tdVictimName, Cores: []int{0, 1}},
			{Name: tdBystanderName, Cores: []int{2, 3}},
		},
		Classify:      tdClassify,
		QueueCapacity: tdQueueCap,
		MarkThreshold: tdQueueCap,
		Obs:           col,
	})
	if err != nil {
		return nil, err
	}
	param := uint32(seed)*2654435761 + paramSalt
	if err := mgr.Install(tdVictimName, tenant.AppBundle{App: apps.IPv4CM(), Param: param, Sequence: 1}); err != nil {
		return nil, err
	}
	if err := mgr.Install(tdBystanderName, tenant.AppBundle{App: apps.UDPEcho(), Param: param ^ 0xB15D, Sequence: 1}); err != nil {
		return nil, err
	}
	plane := mgr.Plane()
	// The victim's contracted admission — static tenancy configuration,
	// applied identically in hostile and control runs.
	for s := 0; s < tdShards; s++ {
		if err := plane.SetTenantAdmission(s, tdVictim, tdVictimCap, tdVictimMark); err != nil {
			return nil, err
		}
	}

	submitClean := func(tenantIdx, n int) error {
		for i := 0; i < n; i++ {
			pkt, err := tdCleanPkt(tenantIdx, uint16(i%16))
			if err != nil {
				return err
			}
			plane.Submit(pkt)
		}
		return nil
	}

	// Baseline traffic on both tenants.
	if err := submitClean(tdVictim, tdCleanPkts/2); err != nil {
		return nil, err
	}
	if err := submitClean(tdBystander, tdCleanPkts/2); err != nil {
		return nil, err
	}
	if err := drainTenant(plane, tdVictim); err != nil {
		return nil, err
	}

	if hostile {
		// noc phase: flood the victim's flow class across many flows so the
		// burst lands on every shard and overwhelms the victim's contracted
		// admission.
		surge := make([][]byte, 0, tdSurgePkts)
		for i := 0; i < tdSurgePkts; i++ {
			pkt, err := tdCleanPkt(tdVictim, uint16(i%64))
			if err != nil {
				return nil, err
			}
			surge = append(surge, pkt)
		}
		plane.SubmitBatch(surge)
		if err := drainTenant(plane, tdVictim); err != nil {
			return nil, err
		}

		// gadget phase: the canonical stack-smash hijack, re-addressed into
		// the victim's flow space, interleaved with clean victim traffic.
		// Paced so the hijack actually reaches the victim's cores instead of
		// tail-dropping behind its own flood.
		smash := attack.DefaultSmash()
		hijack, err := smash.HijackPayload()
		if err != nil {
			return nil, err
		}
		raw, err := smash.CraftPacket(hijack)
		if err != nil {
			return nil, err
		}
		atk := tdRetag(raw, tdVictim)
		for i := 0; i < tdSmashPkts; i++ {
			plane.Submit(atk)
			if err := submitClean(tdVictim, 1); err != nil {
				return nil, err
			}
			if i%4 == 3 {
				if err := drainTenant(plane, tdVictim); err != nil {
					return nil, err
				}
			}
		}
	}

	// Tail traffic on both tenants: the bystander's world must be unchanged
	// even while the victim's lanes are failing over.
	if err := submitClean(tdBystander, tdCleanPkts/2); err != nil {
		return nil, err
	}
	if err := submitClean(tdVictim, tdCleanPkts/2); err != nil {
		return nil, err
	}
	mgr.Close()

	// The manager's snapshots read each tenant's plane accounting and its
	// per-NP domain accounts through the views it resolved at New.
	victim, err := mgr.Snapshot(tdVictimName)
	if err != nil {
		return nil, err
	}
	bystander, err := mgr.Snapshot(tdBystanderName)
	if err != nil {
		return nil, err
	}
	run := &TenantDrillRun{
		Victim:           victim.Plane,
		Bystander:        bystander.Plane,
		BystanderDomains: bystander.Domains,
	}
	for _, vs := range victim.Domains {
		run.VictimQuarantines += vs.Quarantines
	}
	if run.BystanderBytes, err = col.Snapshot().FilterLabel("tenant", tdBystanderName).MarshalCanonical(); err != nil {
		return nil, err
	}
	return run, nil
}

// TenantIsolationDrill runs the hostile and control environments and
// asserts the isolation contract. Returned error text names the first
// violated property; nil means the drill passed. This is the self-check
// behind `npsim -tenant`.
func TenantIsolationDrill(seed int64) error {
	hostile, err := runTenantEnv(seed, true)
	if err != nil {
		return fmt.Errorf("campaign: tenant drill (hostile): %w", err)
	}
	control, err := runTenantEnv(seed, false)
	if err != nil {
		return fmt.Errorf("campaign: tenant drill (control): %w", err)
	}

	// Both runs conserve per-tenant packet accounting.
	for _, r := range []*TenantDrillRun{hostile, control} {
		if !r.Victim.Conserved() || !r.Bystander.Conserved() {
			return fmt.Errorf("campaign: tenant drill conservation violated: victim %+v bystander %+v",
				r.Victim, r.Bystander)
		}
	}

	// The attack was detected and responded to on the victim's domain.
	if hostile.Victim.Alarms == 0 {
		return fmt.Errorf("campaign: gadget attack raised no alarms on the victim")
	}
	if hostile.VictimQuarantines == 0 {
		return fmt.Errorf("campaign: victim detection fired no quarantine response")
	}
	if hostile.Victim.TailDrops+hostile.Victim.Marked == 0 {
		return fmt.Errorf("campaign: noc flood produced no admission pressure on the victim")
	}
	// The control victim saw none of that.
	if control.Victim.Alarms != 0 || control.VictimQuarantines != 0 {
		return fmt.Errorf("campaign: control run shows attack artifacts: %+v", control.Victim)
	}

	// The isolation contract: the bystander's counters, domain statistics
	// and telemetry bytes are identical whether or not the neighbor was
	// under attack.
	if !reflect.DeepEqual(hostile.Bystander, control.Bystander) {
		return fmt.Errorf("campaign: bystander per-tenant counters perturbed by the attack:\nhostile %+v\ncontrol %+v",
			hostile.Bystander, control.Bystander)
	}
	if !reflect.DeepEqual(hostile.BystanderDomains, control.BystanderDomains) {
		return fmt.Errorf("campaign: bystander domain stats perturbed by the attack:\nhostile %+v\ncontrol %+v",
			hostile.BystanderDomains, control.BystanderDomains)
	}
	if !bytes.Equal(hostile.BystanderBytes, control.BystanderBytes) {
		return fmt.Errorf("campaign: bystander telemetry bytes perturbed by the attack:\nhostile %s\ncontrol %s",
			hostile.BystanderBytes, control.BystanderBytes)
	}
	// And the bystander lost nothing: same loss-free throughput either way.
	if hostile.Bystander.Forwarded != uint64(tdCleanPkts) || hostile.Bystander.TailDrops != 0 {
		return fmt.Errorf("campaign: bystander throughput degraded: %+v", hostile.Bystander)
	}
	return nil
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"sdmmon/internal/apps"
	"sdmmon/internal/core"
	"sdmmon/internal/npu"
	"sdmmon/internal/shard"
	"sdmmon/internal/tenant"
)

// provisioner is the manufacturer and certified operator of one benchmark
// process. Creating them, and manufacturing each device, generates RSA
// keys: that is provisioning, done before any set-up clock starts.
type provisioner struct {
	mfr     *core.Manufacturer
	op      *core.Operator
	devices int
}

func newProvisioner() (*provisioner, error) {
	mfr, err := core.NewManufacturer("bench-mfr", nil)
	if err != nil {
		return nil, err
	}
	op, err := core.NewOperator("bench-op", nil)
	if err != nil {
		return nil, err
	}
	if err := mfr.Certify(op); err != nil {
		return nil, err
	}
	return &provisioner{mfr: mfr, op: op}, nil
}

// device manufactures a fresh monitored device.
func (pv *provisioner) device() (*core.Device, error) {
	pv.devices++
	return pv.mfr.Manufacture(fmt.Sprintf("np%d", pv.devices),
		core.DeviceConfig{Cores: npCores, MonitorsEnabled: true})
}

// bareNP is a fresh monitored NP for the tenant manager, which builds its
// tenants' bundles itself instead of receiving them over the secure path.
func bareNP() (*npu.NP, error) {
	return npu.New(npu.Config{Cores: npCores, MonitorsEnabled: true})
}

// fixture is a plane that accepts traffic.
type fixture struct {
	np    *npu.NP
	plane *shard.Plane
	close func()
}

// blank is what a set-up starts from: a freshly manufactured device for an
// untenanted workload, a bare NP for a tenanted one. Making it is
// provisioning, so it happens before the set-up clock starts.
type blank struct {
	dev *core.Device
	np  *npu.NP
}

func (w *workload) blank(pv *provisioner) (blank, error) {
	if w.tenanted() {
		np, err := bareNP()
		return blank{np: np}, err
	}
	dev, err := pv.device()
	return blank{dev: dev}, err
}

// build is the timed set-up of a workload from b. Untenanted: the operator
// builds the wire package (assemble, extract, sign, encrypt), the device
// installs it (certificate check, decrypt, verify, load every core), the
// ACL rules are loaded and the plane is created. Tenanted: tenant.New
// partitions the NP and builds the plane, then one Manager.Install per
// tenant. It returns the fixture and the set-up time. The heap is
// collected first, so that no collection of the provisioning's garbage
// lands inside the timed part.
func (w *workload) build(pv *provisioner, b blank) (*fixture, time.Duration, error) {
	runtime.GC()
	if w.tenanted() {
		np := b.np
		start := time.Now()
		specs := make([]tenant.Spec, len(w.lanes))
		for i, l := range w.lanes {
			specs[i] = tenant.Spec{Name: l.tenant, Cores: l.cores}
		}
		mgr, err := tenant.New(tenant.Config{
			NPs: []*npu.NP{np}, Specs: specs, Classify: w.laneOf,
			QueueCapacity: maxOutstanding, MarkThreshold: maxOutstanding, BatchSize: w.lanes[0].batch,
		})
		if err != nil {
			return nil, 0, err
		}
		for _, l := range w.lanes {
			app, err := apps.ByName(l.app)
			if err == nil {
				err = mgr.Install(l.tenant, tenant.AppBundle{App: app, Param: l.param})
			}
			if err != nil {
				mgr.Close()
				return nil, 0, err
			}
		}
		return &fixture{np: np, plane: mgr.Plane(), close: mgr.Close}, time.Since(start), nil
	}

	l := w.lanes[0]
	dev := b.dev
	start := time.Now()
	// A fresh App per set-up: App caches its assembly, which would
	// otherwise move assembling out of every set-up but the first.
	app, err := apps.ByName(l.app)
	if err != nil {
		return nil, 0, err
	}
	wire, err := pv.op.ProgramWireWith(dev.Public(), app, l.param)
	if err != nil {
		return nil, 0, err
	}
	if _, err := dev.Install(wire); err != nil {
		return nil, 0, err
	}
	if err := l.installRules(dev.NP()); err != nil {
		return nil, 0, err
	}
	plane, err := shard.NewPlane(shard.Config{
		NPs: []*npu.NP{dev.NP()}, QueueCapacity: maxOutstanding, MarkThreshold: maxOutstanding, BatchSize: l.batch,
	})
	if err != nil {
		return nil, 0, err
	}
	return &fixture{np: dev.NP(), plane: plane, close: plane.Close}, time.Since(start), nil
}

// setupLayers times each set-up layer on its own, with lane 0's
// application, reps times: the operator's package build
// (seccrypto.build), the device's secure install (core.install), the NP's
// InstallAll of the same bundle (npu.install) and a tenant manager's
// Install (tenant.install). Like build, each repetition collects the heap
// after provisioning its device.
func (w *workload) setupLayers(pv *provisioner, tr *tracer, reps int) error {
	l := w.lanes[0]
	bin, graph, err := l.bundle()
	if err != nil {
		return err
	}
	for r := 0; r < reps; r++ {
		dev, err := pv.device()
		if err != nil {
			return err
		}
		runtime.GC()
		app, err := apps.ByName(l.app)
		if err != nil {
			return err
		}
		s := tr.begin("seccrypto.build", -1)
		wire, err := pv.op.ProgramWireWith(dev.Public(), app, l.param)
		tr.end(s, 1)
		if err != nil {
			return err
		}
		s = tr.begin("core.install", -1)
		_, err = dev.Install(wire)
		tr.end(s, 1)
		if err != nil {
			return err
		}

		np, err := bareNP()
		if err != nil {
			return err
		}
		s = tr.begin("npu.install", -1)
		err = np.InstallAll(l.app, bin, graph, l.param)
		tr.end(s, 1)
		if err != nil {
			return err
		}

		if np, err = bareNP(); err != nil {
			return err
		}
		name := l.tenant
		if name == "" {
			name = "t"
		}
		mgr, err := tenant.New(tenant.Config{
			NPs: []*npu.NP{np}, Specs: []tenant.Spec{{Name: name, Cores: l.cores}},
			QueueCapacity: maxOutstanding, MarkThreshold: maxOutstanding, BatchSize: l.batch,
		})
		if err != nil {
			return err
		}
		if app, err = apps.ByName(l.app); err != nil {
			mgr.Close()
			return err
		}
		s = tr.begin("tenant.install", -1)
		err = mgr.Install(name, tenant.AppBundle{App: app, Param: l.param})
		tr.end(s, 1)
		mgr.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

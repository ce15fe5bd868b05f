package npu

// Protection domains (DESIGN.md §17): the per-NP half of the multi-tenant
// trusted layer. A domain is an exclusive set of core slots owned by one
// tenant. The trusted domain manager (internal/tenant) installs the
// partition once with SetDomains, resolves each tenant's view once with
// np.Domain(name), and performs every install, stage, commit, rollback,
// quarantine, drain and stats read through that view. A view reaches only
// the cores its domain owns: a call naming any other core is refused with
// ErrDomainViolation before any state moves. This is the Sanctum-style
// discipline: the mapping lives in one small trusted layer, and nothing a
// tenant does — including its own upgrade traffic — can reach another
// tenant's slots.
//
// The whole NP is one more view, over every core, and the NP embeds it:
// np.InstallAll, np.Stats, np.DrainBatch and the rest are that view's
// methods, so each core operation is written once. A domain view is bound
// to the partition it was resolved against. SetDomains replaces the
// partition, after which the old views are stale and every operation on
// them is refused with ErrUnknownDomain — the batch engine checks this
// under the same lock SetDomains swaps the partition under, so a batch can
// never run on cores a repartition gave to someone else. The whole-NP view
// is bound to no partition and never goes stale. Per-domain statistics
// accumulate alongside the NP aggregate, so a tenant's health is
// observable without reading (or perturbing) anyone else's numbers.

import (
	"errors"
	"fmt"
)

// Domain access errors.
var (
	// ErrDomainViolation: a domain view was asked to act on a core its
	// domain does not own. The operation is refused with no state change.
	ErrDomainViolation = errors.New("npu: core outside caller's protection domain")
	// ErrUnknownDomain: the named domain is not in the current partition,
	// or a view outlived the partition it was resolved against.
	ErrUnknownDomain = errors.New("npu: unknown protection domain")
)

// DomainSpec names one protection domain and the cores it owns.
type DomainSpec struct {
	Name  string
	Cores []int
}

// Domain is a view of the cores one protection domain owns: the unit every
// core operation is defined on. NP.Domain resolves a named view of the
// current partition; the NP itself embeds the view over every core. A view
// is immutable and safe for concurrent use.
type Domain struct {
	np    *NP
	name  string
	part  *partition // the partition resolved against; nil for the whole NP
	idx   int        // this domain's index in part
	cores []int      // the owned cores, ascending
}

// whole names the NP's embedded view over every core.
type whole = Domain

// partition is one SetDomains result: a view per domain (index 0 is the
// root domain "", which owns every core no spec lists), each core's owner
// index, and the per-domain stat accounts. SetDomains replaces it
// wholesale; only the stat accounts change afterwards, under statsMu.
type partition struct {
	views      []*Domain
	slotDomain []int
	stats      []Stats
}

// newPartition validates specs and builds their partition.
func (np *NP) newPartition(specs []DomainSpec) (*partition, error) {
	n := len(np.slots)
	p := &partition{
		views:      []*Domain{{np: np}},
		slotDomain: make([]int, n),
		stats:      make([]Stats, len(specs)+1),
	}
	seen := map[string]bool{"": true}
	for _, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("npu: domain name must be non-empty")
		}
		if seen[sp.Name] {
			return nil, fmt.Errorf("npu: duplicate domain %q", sp.Name)
		}
		if len(sp.Cores) == 0 {
			return nil, fmt.Errorf("npu: domain %q owns no cores", sp.Name)
		}
		seen[sp.Name] = true
		idx := len(p.views)
		p.views = append(p.views, &Domain{np: np, name: sp.Name})
		for _, c := range sp.Cores {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("npu: domain %q: core %d out of range", sp.Name, c)
			}
			if p.slotDomain[c] != 0 {
				return nil, fmt.Errorf("npu: core %d claimed by both %q and %q",
					c, p.views[p.slotDomain[c]].name, sp.Name)
			}
			p.slotDomain[c] = idx
		}
	}
	for idx, d := range p.views {
		d.part, d.idx = p, idx
	}
	for c, idx := range p.slotDomain {
		p.views[idx].cores = append(p.views[idx].cores, c)
	}
	return p, nil
}

// SetDomains installs a core partition: each listed domain owns its cores
// exclusively; cores not listed anywhere stay in the root domain "". The
// call replaces any previous partition and zeroes the per-domain stat
// accounts (the NP aggregate is untouched). Views resolved before the call
// are stale afterwards: their operations fail with ErrUnknownDomain, and
// a batch already running on one finishes on the cores it started with.
func (np *NP) SetDomains(specs []DomainSpec) error {
	p, err := np.newPartition(specs)
	if err != nil {
		return err
	}
	// batchMu orders the swap against the batch engine's currency check
	// and participant scan; statsMu against the per-domain stat folds.
	np.batchMu.Lock()
	np.statsMu.Lock()
	np.domains.Store(p)
	np.statsMu.Unlock()
	np.batchMu.Unlock()
	return nil
}

// Domain resolves a domain of the current partition to its view.
func (np *NP) Domain(name string) (*Domain, error) {
	for _, d := range np.domains.Load().views {
		if d.name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("npu: %w: %q", ErrUnknownDomain, name)
}

// Domains lists the current partition's domain names, root ("") first.
func (np *NP) Domains() []string {
	views := np.domains.Load().views
	names := make([]string, len(views))
	for i, d := range views {
		names[i] = d.name
	}
	return names
}

// DomainOf reports the domain owning a core ("" = root).
func (np *NP) DomainOf(coreID int) (string, error) {
	if coreID < 0 || coreID >= len(np.slots) {
		return "", fmt.Errorf("npu: core %d out of range", coreID)
	}
	p := np.domains.Load()
	return p.views[p.slotDomain[coreID]].name, nil
}

// Whole returns the NP's view over every core — the one a single-tenant
// plane drains through. It is bound to no partition and never goes stale.
func (np *NP) Whole() *Domain { return &np.whole }

// Err is nil while the view is current and ErrUnknownDomain once a
// SetDomains has replaced the partition it was resolved against. The
// whole-NP view is always current.
func (d *Domain) Err() error {
	if d.part != nil && d.np.domains.Load() != d.part {
		return fmt.Errorf("npu: %w: %q (repartitioned)", ErrUnknownDomain, d.name)
	}
	return nil
}

// slot is the ownership gate of every core-addressed operation: it returns
// the core's slot, or refuses a core out of range, a stale view, or a core
// another domain owns.
func (d *Domain) slot(coreID int) (*coreSlot, error) {
	if coreID < 0 || coreID >= len(d.np.slots) {
		return nil, fmt.Errorf("npu: core %d out of range", coreID)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.part != nil {
		if owner := d.part.slotDomain[coreID]; owner != d.idx {
			return nil, fmt.Errorf("npu: domain %q, core %d owned by %q: %w",
				d.name, coreID, d.part.views[owner].name, ErrDomainViolation)
		}
	}
	return d.np.slots[coreID], nil
}

// prepareAll builds one image per owned core — the expensive, fallible
// half of a domain-wide install or stage — before any slot is touched.
func (d *Domain) prepareAll(name string, binary, graph []byte, param uint32) ([]*preparedApp, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(d.cores) == 0 {
		return nil, fmt.Errorf("npu: domain %q owns no cores", d.name)
	}
	prepared := make([]*preparedApp, len(d.cores))
	for i := range prepared {
		p, err := d.np.prepare(name, binary, graph, param)
		if err != nil {
			return nil, err
		}
		prepared[i] = p
	}
	return prepared, nil
}

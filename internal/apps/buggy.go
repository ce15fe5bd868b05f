package apps

// FaultyEcho returns a deliberately broken release of the echo application,
// shipped under the echo's own name (udpecho) so it installs as a newer
// release of it: it performs a misaligned word load on every packet, raising
// an alignment exception the moment it runs traffic. It assembles cleanly,
// its monitoring graph extracts from its own binary, and it passes every
// cryptographic and self-check gate of the secure installation path — the
// failure only shows up under live traffic. That makes it the canonical bad
// release for the per-unit health gate of the staged rollouts
// (internal/rollout, driven by network.UpgradeFleet and
// tenant.Manager.Rollout): a regression no install-time check can catch.
// Deliberately NOT in All(): the application sweeps there assume fault-free
// binaries.
func FaultyEcho() *App {
	return &App{
		Name:        "udpecho",
		Description: "broken echo release: misaligned load faults on every packet",
		Source: header + `
	.text 0x0
main:
	lw $t0, 1($a0)             # misaligned: PKT+1 is never word-aligned
	li $v0, 1
	break
`,
	}
}

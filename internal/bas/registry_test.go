package bas

import (
	"strings"
	"testing"
	"time"
)

// TestDeployRegistryBootsEveryPlatform drives every registered platform
// through the platform-neutral Deployment interface alone: boot, run,
// report, liveness — no concrete types.
func TestDeployRegistryBootsEveryPlatform(t *testing.T) {
	for _, p := range KnownPlatforms() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := DefaultScenario()
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			dep, err := Deploy(p, tb, cfg, DeployOptions{})
			if err != nil {
				t.Fatalf("Deploy(%s): %v", p, err)
			}
			if dep.Platform() != p {
				t.Errorf("Platform() = %q, want %q", dep.Platform(), p)
			}
			if dep.Machine() != tb.Machine {
				t.Error("Machine() is not the testbed's board")
			}
			dep.Run(10 * time.Minute)
			if !dep.ControllerAlive() {
				t.Error("controller dead after a quiet 10-minute run")
			}
			rep := dep.Report(false)
			if rep.Platform != string(p) {
				t.Errorf("report platform %q, want %q", rep.Platform, p)
			}
			if len(rep.Counters) == 0 {
				t.Error("report has no counters after a run")
			}
		})
	}
}

// TestDeployUnknownPlatform pins the error contract: the message names the
// registered platforms so a typo is self-diagnosing.
func TestDeployUnknownPlatform(t *testing.T) {
	cfg := DefaultScenario()
	tb := NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	_, err := Deploy("plan9", tb, cfg, DeployOptions{})
	if err == nil {
		t.Fatal("unknown platform deployed")
	}
	for _, p := range KnownPlatforms() {
		if !strings.Contains(err.Error(), string(p)) {
			t.Errorf("error %q does not name known platform %s", err, p)
		}
	}
}

// TestHardenedLinuxGateRuns: the hardened deployment passes the pre-deploy
// gate (the unique-account DAC model satisfies the contract statically),
// and SkipPolicyCheck is accepted on the Linux options too — the hoisted
// field has identical semantics on all three platforms.
func TestHardenedLinuxGateRuns(t *testing.T) {
	cfg := DefaultScenario()

	tb := NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	dep, err := Deploy(PlatformLinuxHardened, tb, cfg, DeployOptions{})
	if err != nil {
		t.Fatalf("hardened Linux failed the gate: %v", err)
	}
	if dep.Platform() != PlatformLinuxHardened {
		t.Errorf("hardened deployment reports platform %q", dep.Platform())
	}

	tb2 := NewTestbed(cfg)
	defer tb2.Machine.Shutdown()
	if _, err := Deploy(PlatformLinuxHardened, tb2, cfg, DeployOptions{SkipPolicyCheck: true}); err != nil {
		t.Fatalf("hardened Linux with SkipPolicyCheck: %v", err)
	}
}

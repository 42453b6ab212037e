package fabric

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// TestFabricPartitionHealSoak is the long-haul partition drill: campaigns
// run back to back for minutes while every link — coordinator side and
// executor side — keeps falling into multi-second asymmetric partitions
// that heal mid-campaign. The session layer must ride every one of them
// out (retransmit over the healed link, or reconnect if the silence timer
// fires first) and every round must still deliver every verdict exactly
// once with zero quarantines.
//
// The test is opt-in twice over: -short skips it, and without SWIFI_SOAK=1
// it skips too, so it costs regular CI nothing. The nightly job
// (scripts/nightly_soak.sh) sets the gate; SWIFI_SOAK_FOR overrides the
// default 2-minute budget.
func TestFabricPartitionHealSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped with -short")
	}
	if os.Getenv("SWIFI_SOAK") != "1" {
		t.Skip("soak test: set SWIFI_SOAK=1 to run (wired into scripts/nightly_soak.sh)")
	}
	soakFor := 2 * time.Minute
	if v := os.Getenv("SWIFI_SOAK_FOR"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("SWIFI_SOAK_FOR: %v", err)
		}
		soakFor = d
	}

	const units = 150
	reg := telemetry.NewRegistry()
	cm := chaos.NewMetrics(reg)
	partition := func(seed int64) *chaos.Chaos {
		return chaos.New(chaos.Config{
			Seed:          seed,
			Partition:     0.004,
			PartitionFor:  3 * time.Second,
			PartitionHeal: true,
		}, cm)
	}

	deadline := time.Now().Add(soakFor)
	rounds := 0
	for time.Now().Before(deadline) {
		rounds++
		coord, err := NewCoordinator(CoordinatorOptions{
			Addr:              "127.0.0.1:0",
			MinHosts:          2,
			Spec:              testSpec(),
			Units:             units,
			HeartbeatInterval: 50 * time.Millisecond,
			// The whole point: tolerate more silence than one partition
			// window, so a healed outage is survived in place rather than
			// declared a host death.
			HeartbeatTimeout: 10 * time.Second,
			SessionTimeout:   20 * time.Second,
			Quarantine:       journal.Outcome{Mode: 9},
			WrapConn:         partition(int64(rounds)).Wrap,
			Log:              t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		joinErr := make(chan error, 2)
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("soak-%d-%d", rounds, i)
			execChaos := partition(int64(rounds)*100 + int64(i))
			go func() {
				joinErr <- Join(ctx, coord.Addr().String(), ExecutorOptions{
					Name:            name,
					Workers:         2,
					Batch:           inProcFactory(fakeFactory(units, 5*time.Millisecond), 2),
					ReconnectWindow: 30 * time.Second,
					WrapConn:        execChaos.Wrap,
				})
			}()
		}
		results := collectRun(t, coord, units, nil)
		checkResults(t, results)
		for i := 0; i < 2; i++ {
			if err := <-joinErr; err != nil {
				t.Fatalf("round %d: executor join: %v", rounds, err)
			}
		}
		cancel()
		t.Logf("round %d complete: partitions=%d healed=%d",
			rounds, reg.Counters()["chaos_partitions_total"], reg.Counters()["chaos_partitions_healed_total"])
	}

	parts := reg.Counters()["chaos_partitions_total"]
	healed := reg.Counters()["chaos_partitions_healed_total"]
	if parts == 0 {
		t.Fatalf("%d rounds injected no partitions; raise the probability or the soak budget", rounds)
	}
	if healed == 0 {
		t.Fatal("no partition healed mid-campaign; the asymmetric-outage path went unexercised")
	}
	t.Logf("soak complete: %d rounds, %d partitions, %d healed", rounds, parts, healed)
}

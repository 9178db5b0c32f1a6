package experiment

import (
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/sim"
)

func TestFullScaleFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("full scale")
	}
	dyn := RunScalability(sim.ModeDynamoth, 1200, 1000*time.Second, 1)
	t.Logf("DYNAMOTH:\n%s", dyn.Series.Table())
	t.Logf("dyn maxHealthy=%d peak=%d final=%d rebal=%d meanRT=%.1f",
		dyn.MaxHealthyPlayers, dyn.PeakServers, dyn.FinalServers, dyn.Rebalances, dyn.MeanRTms)
	ch := RunScalability(sim.ModeConsistentHashing, 1200, 1000*time.Second, 1)
	t.Logf("CH:\n%s", ch.Series.Table())
	t.Logf("ch maxHealthy=%d peak=%d rebal=%d meanRT=%.1f",
		ch.MaxHealthyPlayers, ch.PeakServers, ch.Rebalances, ch.MeanRTms)
	// The paper's headline (§V-D): Dynamoth serves more players within
	// 150 ms than consistent hashing.
	if dyn.MaxHealthyPlayers <= ch.MaxHealthyPlayers {
		t.Fatalf("Dynamoth serves %d players within 150 ms, consistent hashing %d: want Dynamoth ahead",
			dyn.MaxHealthyPlayers, ch.MaxHealthyPlayers)
	}
}

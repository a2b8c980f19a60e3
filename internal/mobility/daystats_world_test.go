package mobility_test

import (
	"math/rand"
	"testing"

	"locind/internal/expt"
	"locind/internal/mobility"
)

// TestDayStatsMatchesMapOracleOnQuickWorld holds DayStats to the map-based
// oracle on every user-day of the quick world's device trace and of the
// IMAP trace, generated as RunSensitivity generates it.
func TestDayStatsMatchesMapOracleOnQuickWorld(t *testing.T) {
	w, err := expt.BuildWorld(expt.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	mobility.CheckDayStatsOracle(t, w.Devices)
	imapCfg := w.Cfg.Device
	imapCfg.Users = w.Cfg.IMAPUsers
	imapCfg.Days = w.Cfg.IMAPDays
	imapTrace, err := mobility.GenerateDeviceTrace(w.Graph, w.Prefixes, imapCfg, rand.New(rand.NewSource(w.Cfg.Seed+6)))
	if err != nil {
		t.Fatal(err)
	}
	mobility.CheckDayStatsOracle(t, imapTrace)
}

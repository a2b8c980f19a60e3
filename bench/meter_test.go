package main

import (
	"errors"
	"testing"
	"time"
)

func TestMeterWarmupOpCountAndFailures(t *testing.T) {
	m := newMeter(time.Hour, 5, 3)
	calls := 0
	m.loop(func(i int) error {
		calls++
		if i == 4 { // the second measured op
			return errors.New("boom")
		}
		return nil
	})
	if calls != 8 {
		t.Errorf("loop made %d calls, want 3 warm-up + 5 measured", calls)
	}
	if m.ops() != 5 || m.failed != 1 || len(m.samples) != 4 {
		t.Errorf("ops=%d failed=%d samples=%d, want 5, 1, 4", m.ops(), m.failed, len(m.samples))
	}
	if !m.done || m.running {
		t.Errorf("meter not stopped: done=%v running=%v", m.done, m.running)
	}
	if !m.observe(0, nil) {
		t.Error("observe after the end must keep saying stop")
	}
}

func TestMeterStopsAtWallCeiling(t *testing.T) {
	m := newMeter(20*time.Millisecond, 1<<20, 0)
	m.loop(func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if m.wall < 20*time.Millisecond || m.wall > 2*time.Second {
		t.Errorf("measured wall %v under a 20ms ceiling", m.wall)
	}
	if m.ops() < 2 || m.ops() >= 1<<20 {
		t.Errorf("%d ops under the ceiling", m.ops())
	}
}

func TestOffTheClockIsNotMeasured(t *testing.T) {
	m := newMeter(time.Hour, 16, 0)
	m.begin()
	if err := m.resetup(func() error {
		time.Sleep(50 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m.end()
	if m.wall > 25*time.Millisecond {
		t.Errorf("50ms of off-the-clock work showed up in a measured wall of %v", m.wall)
	}
	if len(m.resetups) != 1 || m.resetups[0] < 0.05 {
		t.Errorf("set-up samples %v, want one of at least 0.05s", m.resetups)
	}
}

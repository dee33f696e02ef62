package experiments

import (
	"fmt"
	"time"

	"repro/internal/floorplan"
	"repro/internal/matrix"
	"repro/internal/rotation"
	"repro/internal/thermal"
)

// AnalyticVsBruteRow compares Algorithm 1 against explicit transient
// simulation.
type AnalyticVsBruteRow struct {
	Delta         int
	AnalyticPeak  float64
	BrutePeak     float64
	AnalyticTime  time.Duration
	BruteTime     time.Duration
	SpeedupFactor float64
}

// AnalyticVsBrute quantifies why Algorithm 1 matters: same answer as
// brute-force transient simulation, orders of magnitude faster. Uses a
// fast-time-constant model so the brute force converges in a bounded number
// of periods. Deliberately serial: both sides are wall-clock measurements,
// and concurrent cells contending for cores would corrupt the speedup factor.
func AnalyticVsBrute(deltas []int) ([]AnalyticVsBruteRow, error) {
	cfg := thermal.DefaultConfig()
	cfg.SiCapacitance /= 100
	cfg.SpCapacitance /= 100
	cfg.SinkCapacitancePerCore /= 100
	m, err := thermal.New(floorplan.MustNew(4, 4, 0.0009), cfg)
	if err != nil {
		return nil, err
	}
	calc := rotation.NewCalculator(m)

	var rows []AnalyticVsBruteRow
	for _, delta := range deltas {
		base := matrix.Constant(16, 0.3)
		base[5] = 9
		cores := []int{5, 6, 10, 9, 4, 1, 2, 7, 11, 14, 13, 8}
		if delta > len(cores) {
			return nil, fmt.Errorf("experiments: delta %d exceeds available cores", delta)
		}
		plan := rotation.Rotate(0.5e-3, base, cores[:delta])

		start := time.Now()
		analytic, err := calc.PeakTemperature(plan)
		if err != nil {
			return nil, err
		}
		analyticTime := time.Since(start)

		periods := int(0.3/(0.5e-3*float64(delta))) + 1
		start = time.Now()
		brute, err := calc.BruteForcePeak(plan, periods, 4)
		if err != nil {
			return nil, err
		}
		bruteTime := time.Since(start)

		rows = append(rows, AnalyticVsBruteRow{
			Delta:         delta,
			AnalyticPeak:  analytic,
			BrutePeak:     brute,
			AnalyticTime:  analyticTime,
			BruteTime:     bruteTime,
			SpeedupFactor: float64(bruteTime) / float64(analyticTime),
		})
	}
	return rows, nil
}

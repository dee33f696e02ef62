package hotpotato

import (
	"slices"
	"strings"
	"testing"
)

func TestHottestSliceAgainstLiveSimulation(t *testing.T) {
	plat, err := NewPlatform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	task, err := NewTask(0, MustBenchmark("blackscholes"), 2, 0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimulation(plat, DefaultSimConfig(), NewHotPotatoScheduler(plat, 70), []*Task{task})
	if err != nil {
		t.Fatal(err)
	}
	// Record every slice next to the snapshot, then find the first slice
	// whose hottest core is the run's hottest.
	var hottest HottestSlice
	var times, maxes []float64
	var temps [][]float64
	s.SetTrace(func(tm float64, coreTemps, coreWatts, coreFreq []float64) {
		times = append(times, tm)
		maxes = append(maxes, slices.Max(coreTemps))
		temps = append(temps, slices.Clone(coreTemps))
		hottest.Observe(tm, coreTemps, coreWatts, coreFreq)
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	best := 0
	for i, m := range maxes {
		if m > maxes[best] {
			best = i
		}
	}
	if best == 0 || best == len(maxes)-1 {
		t.Fatalf("hottest slice %d of %d: the run should peak mid-way", best, len(maxes))
	}
	if hottest.time != times[best] || hottest.max != maxes[best] || !slices.Equal(hottest.temps, temps[best]) {
		t.Errorf("snapshot t=%v max=%v, want slice %d: t=%v max=%v", hottest.time, hottest.max, best, times[best], maxes[best])
	}
}

func TestHottestSampleHeatmap(t *testing.T) {
	var h HottestSlice
	h.Observe(0.001, []float64{50, 50, 50, 50}, nil, nil)
	h.Observe(0.002, []float64{50, 72, 50, 50}, nil, nil) // hottest
	h.Observe(0.003, []float64{55, 55, 55, 55}, nil, nil)
	h.Observe(0.004, []float64{72, 50, 50, 50}, nil, nil) // as hot: the first is kept
	out, err := h.Heatmap(2, 2, 45, 75)
	if err != nil {
		t.Fatal(err)
	}
	if want := "t = 2.0 ms (hottest sample, max 72.00 °C)\n..%%\n....\n"; !strings.HasPrefix(out, want) {
		t.Errorf("hottest sample heatmap: %q, want prefix %q", out, want)
	}
	var empty HottestSlice
	if _, err := empty.Heatmap(2, 2, 45, 75); err == nil {
		t.Error("heatmap of an unobserved run accepted")
	}
}

func TestHeatmapRendering(t *testing.T) {
	temps := []float64{45, 55, 65, 75}
	out, err := HeatmapASCII(temps, 2, 2, 45, 75)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // 2 rows + legend
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if len(lines[0]) != 4 { // 2 cores × 2 glyphs
		t.Fatalf("row width = %d", len(lines[0]))
	}
	// Coldest cell uses the coldest glyph, hottest the hottest.
	if lines[0][0] != ' ' {
		t.Errorf("cold cell glyph %q", lines[0][0])
	}
	if lines[1][2] != '@' {
		t.Errorf("hot cell glyph %q", lines[1][2])
	}
	if !strings.Contains(out, "scale:") {
		t.Error("legend missing")
	}
}

func TestHeatmapValidation(t *testing.T) {
	if _, err := HeatmapASCII([]float64{1}, 2, 2, 0, 1); err == nil {
		t.Error("wrong-length temps accepted")
	}
	if _, err := HeatmapASCII([]float64{1, 2, 3, 4}, 0, 4, 0, 1); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := HeatmapASCII([]float64{1, 2, 3, 4}, 2, 2, 5, 5); err == nil {
		t.Error("empty range accepted")
	}
}

func TestHeatmapClamping(t *testing.T) {
	out, err := HeatmapASCII([]float64{-100, 1000}, 2, 1, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	row := strings.Split(out, "\n")[0]
	if row[0] != ' ' || row[2] != '@' {
		t.Errorf("clamping wrong: %q", row)
	}
}

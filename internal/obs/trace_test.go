package obs

import (
	"bufio"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func ev(i int) EpochEvent {
	return EpochEvent{
		Epoch:     i,
		Time:      float64(i) * 0.5e-3,
		Mapping:   map[string]int{"0:0": i % 4},
		Freqs:     []float64{4e9, 4e9},
		CoreTemps: []float64{50, 60},
		PeakTemp:  60,
	}
}

func TestRingTracerKeepsOrderBelowCapacity(t *testing.T) {
	tr := NewRingTracer(8)
	for i := 0; i < 5; i++ {
		tr.RecordEpoch(ev(i))
	}
	got := tr.Events()
	if len(got) != 5 || tr.Len() != 5 || tr.Total() != 5 || tr.Dropped() != 0 {
		t.Fatalf("len=%d total=%d dropped=%d", tr.Len(), tr.Total(), tr.Dropped())
	}
	for i, e := range got {
		if e.Epoch != i {
			t.Errorf("event %d has epoch %d", i, e.Epoch)
		}
	}
}

func TestRingTracerOverwritesOldest(t *testing.T) {
	tr := NewRingTracer(4)
	for i := 0; i < 10; i++ {
		tr.RecordEpoch(ev(i))
	}
	got := tr.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	for i, e := range got {
		if want := 6 + i; e.Epoch != want {
			t.Errorf("event %d has epoch %d, want %d", i, e.Epoch, want)
		}
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Errorf("total=%d dropped=%d, want 10/6", tr.Total(), tr.Dropped())
	}
}

func TestRingTracerDefaultCapacity(t *testing.T) {
	tr := NewRingTracer(0)
	for i := 0; i <= DefaultTraceDepth; i++ {
		tr.RecordEpoch(ev(i))
	}
	if tr.Len() != DefaultTraceDepth || tr.Dropped() != 1 {
		t.Errorf("len=%d dropped=%d, want %d/1", tr.Len(), tr.Dropped(), DefaultTraceDepth)
	}
	if got := tr.Events()[0].Epoch; got != 1 {
		t.Errorf("oldest retained epoch %d, want 1", got)
	}
}

// TestRingTracerAllocatesAsItFills: a ring holds the epochs it recorded, not
// its capacity — a job that ran a few epochs must not pin DefaultTraceDepth
// events' worth of heap for its whole retention.
func TestRingTracerAllocatesAsItFills(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewRingTracer(DefaultTraceDepth)
	tr.RecordEpoch(ev(0))
	runtime.ReadMemStats(&after)
	full := uint64(DefaultTraceDepth) * uint64(unsafe.Sizeof(EpochEvent{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > full/64 {
		t.Errorf("one event allocated %d B; the full ring is %d B", got, full)
	}
	if tr.Len() != 1 {
		t.Errorf("len=%d, want 1", tr.Len())
	}
}

func TestRingTracerConcurrentReadWhileRecording(t *testing.T) {
	// The service reads a job's trace while the run records; -race guards this.
	tr := NewRingTracer(16)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			tr.RecordEpoch(ev(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			evs := tr.Events()
			for j := 1; j < len(evs); j++ {
				if evs[j].Epoch != evs[j-1].Epoch+1 {
					t.Errorf("events out of order: %d after %d", evs[j].Epoch, evs[j-1].Epoch)
					return
				}
			}
		}
	}()
	wg.Wait()
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	tr := NewRingTracer(8)
	for i := 0; i < 3; i++ {
		tr.RecordEpoch(ev(i))
	}
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	n := 0
	for sc.Scan() {
		var e EpochEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if e.Epoch != n || e.Mapping["0:0"] != n%4 {
			t.Errorf("line %d decoded to %+v", n, e)
		}
		n++
	}
	if n != 3 {
		t.Errorf("wrote %d lines, want 3", n)
	}
}

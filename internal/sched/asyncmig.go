package sched

import (
	"repro/internal/sim"
)

// AsyncMigrate isolates the paper's central comparison: asynchronous
// on-demand thread migration *without* DVFS — the "measure of last resort"
// strategy (§I) — against HotPotato's synchronous rotation. Threads run
// pinned at peak frequency until their core approaches the threshold, then
// hop to the coolest free core; there is no periodic averaging, so heat must
// build up before anything reacts.
type AsyncMigrate struct {
	tdtm float64
	// margin triggers a migration when a core reaches tdtm − margin.
	margin float64
	// minGain is the minimum temperature advantage a destination must offer.
	minGain float64
	epoch   float64

	pinning pinning
	// out is the Assignment of every Decision returned, refilled each
	// Decide (borrowed until the next, see sim.Decision).
	out map[sim.ThreadID]int
	scr scratch
}

// NewAsyncMigrate builds the migration-only policy.
func NewAsyncMigrate(tdtm float64) *AsyncMigrate {
	return &AsyncMigrate{
		tdtm:    tdtm,
		margin:  2,
		minGain: 2,
		epoch:   1e-3,
		pinning: newPinning(),
		out:     map[sim.ThreadID]int{},
	}
}

// Name implements sim.Scheduler.
func (a *AsyncMigrate) Name() string { return "async-migration" }

// Decide implements sim.Scheduler.
func (a *AsyncMigrate) Decide(st *sim.State) sim.Decision {
	// Shared gang-FIFO admission with cache-aware ordering, then on-demand
	// migration away from hot cores.
	a.pinning.sync(st)
	a.scr.admitByAMD(st, &a.pinning, a.scr.queuedTasks(st))
	a.scr.migrateHot(st, &a.pinning, a.tdtm-a.margin, a.minGain)
	// No DVFS: peak frequency everywhere (nil Freq).
	a.pinning.fill(a.out)
	return sim.Decision{Assignment: a.out, NextInvoke: a.epoch}
}

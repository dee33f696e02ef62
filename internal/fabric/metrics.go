package fabric

import "repro/internal/obs"

// Fabric metrics, registered in the shared obs registry so the dispatcher's
// GET /metrics exposes them alongside the process defaults. Names are
// package-unique (the obs registry panics on duplicates).
var (
	metricSweeps = obs.NewCounter("fabric_sweeps_total",
		"Sweeps submitted to the dispatcher.")
	metricCells = obs.NewCounter("fabric_cells_total",
		"Cells admitted across all sweeps.")
	metricCellsCompleted = obs.NewCounter("fabric_cells_completed_total",
		"Cells finished with status ok.")
	metricCellsFailed = obs.NewCounter("fabric_cells_failed_total",
		"Cells finished with status failed (including retry exhaustion).")
	metricCellsRequeued = obs.NewCounter("fabric_cells_requeued_total",
		"Cells re-queued after their lease expired.")
	metricLeases = obs.NewCounter("fabric_leases_total",
		"Leases granted to workers.")
	metricLeasesExpired = obs.NewCounter("fabric_leases_expired_total",
		"Leases expired without completing (worker died or stopped heartbeating).")
	metricArchiveHits = obs.NewCounter("fabric_archive_hits_total",
		"Cells answered from the result archive without leasing.")
	metricWorkers = obs.NewGauge("fabric_workers",
		"Workers on the roster: holding a lease or heard from within the lease TTL.")
	metricQueueDepth = obs.NewGauge("fabric_queue_depth",
		"Pending cells awaiting a lease.")
	metricDroppedRecords = obs.NewCounter("fabric_dropped_records_total",
		"Stream records the dispatcher refused to write (marshal failure or post-summary).")
	metricSpansGrafted = obs.NewCounter("fabric_spans_grafted_total",
		"Worker-exported span records merged into sweep trace trees.")
	metricFleetSeriesDropped = obs.NewCounter("fabric_fleet_series_dropped_total",
		"Federated metric series rejected (invalid or dispatcher-owned name, counter/gauge name clash, or fleet series budget exhausted).")
)

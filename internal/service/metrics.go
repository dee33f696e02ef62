package service

import "repro/internal/obs"

// Pre-registered serving metrics. Package-level and process-wide: tests (and
// any embedder) construct many Servers, so per-instance registration would
// panic on duplicate names — instances sum into one set of series instead.
var (
	metricRunRequests = obs.NewCounter("service_run_requests_total",
		"Synchronous POST /v1/run requests accepted for execution.")
	metricJobsSubmitted = obs.NewCounter("service_jobs_submitted_total",
		"Asynchronous jobs accepted via POST /v1/jobs.")
	metricJobsRejected = obs.NewCounter("service_jobs_rejected_total",
		"Job submissions answered 429 because Workers + QueueDepth jobs were unfinished.")
	metricJobsFinished = obs.NewCounter("service_jobs_finished_total",
		"Asynchronous jobs that reached a terminal status (done, failed, canceled).")
	metricBadRequests = obs.NewCounter("service_bad_requests_total",
		"Request bodies rejected with 400 (undecodable or invalid RunSpec).")
	metricQueueDepth = obs.NewGauge("service_job_queue_depth",
		"Asynchronous jobs admitted and waiting for a worker slot (status queued).")
	metricRunLatency = obs.NewHistogram("service_run_seconds",
		"POST /v1/run wall-clock from accepted spec to response, seconds.",
		obs.DefLatencyBuckets)
	metricJobLatency = obs.NewHistogram("service_job_seconds",
		"Asynchronous job execution wall-clock (running to terminal), seconds.",
		obs.DefLatencyBuckets)
	metricResultCacheHits = obs.NewCounter("service_result_cache_hits_total",
		"Result cache lookups served from a cached (or coalesced in-flight) run.")
	metricResultCacheMisses = obs.NewCounter("service_result_cache_misses_total",
		"Result cache lookups that started a fresh simulation.")
	metricResultCacheEvictions = obs.NewCounter("service_result_cache_evictions_total",
		"Results dropped from the cache by the LRU bound.")
	metricResultCacheBytes = obs.NewGauge("service_result_cache_bytes",
		"Approximate JSON-encoded size of all cached results.")
	metricBatchRequests = obs.NewCounter("service_batch_requests_total",
		"POST /v1/batch sweeps accepted for streaming execution.")
	metricBatchCells = obs.NewCounter("service_batch_cells_total",
		"Sweep cells executed (or served from cache) across all batches.")
	metricBatchRejected = obs.NewCounter("service_batch_rejected_total",
		"Sweeps answered 413 because the cross-product exceeded the admission limit.")
	metricBatchDroppedRecords = obs.NewCounter("service_batch_dropped_records_total",
		"Stream records /v1/batch refused to write (marshal failure or post-summary).")
	metricResultCacheAbandoned = obs.NewCounter("service_result_cache_abandoned_total",
		"Followers that re-ran a spec uncached after their singleflight leader abandoned it.")
	metricPredictRequests = obs.NewCounter("service_predict_requests_total",
		"POST /v1/predict requests answered by the analytical twin.")
	metricPredictDomainRejected = obs.NewCounter("service_predict_domain_rejected_total",
		"Predict requests answered 422 because the spec lies outside the twin's calibrated domain.")
)

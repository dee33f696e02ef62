// Package fabric is the distributed sweep control plane: a dispatcher that
// shards expanded SweepSpec cells across worker daemons, and the worker pull
// loop those daemons run.
//
// The design follows the SIMQ booked/executing job lifecycle: workers pull
// work when idle instead of the dispatcher pushing it. One sweep submitted to
// the dispatcher's POST /v1/batch expands (hotpotato.SweepSpec.Expand) into
// cells; each cell walks
//
//	pending → leased → done | failed
//
// Workers loop: lease a small batch of cells, execute each through their
// own serving stack (result cache included), stream SweepResultRecords back
// as cells finish, and heartbeat while they work. Leasing is how a worker
// joins the dispatcher's roster; the lease reaper drops a worker that holds
// no lease and has been silent for a lease TTL.
// Leases carry deadlines — a worker that dies or stops heartbeating has its
// booked cells re-queued at the front of the queue (bounded retries, then the
// cell is reported "failed"), so a kill -9 mid-sweep costs one lease TTL, not
// the sweep.
//
// The client-facing POST /v1/batch is the single-node server's: both
// handlers are thin callers of this package's AdmitSweep, WantsSSE,
// StreamSweep and WriteError, so the NDJSON/SSE wire contract (sweep header,
// result records in completion order, progress heartbeats, terminal summary)
// and the error envelope are one implementation. Clients cannot tell a
// dispatcher from a hotpotato-server — except that the sweep header also
// carries a sweep_id naming the archive entry. Completed results land in a
// date/ID-organized Archive keyed by SpecHash; a re-posted sweep whose cells
// are archived replays without leasing anything.
//
// docs/API.md §"The sweep fabric" documents the wire surface;
// docs/SERVICE.md §"The sweep fabric" the operational story.
package fabric

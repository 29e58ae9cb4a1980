// Package scrubd is the online scrub-scheduling service: the paper's
// Waiting and Autoregression decision rules served as a long-running
// daemon instead of replayed offline.
//
// The Engine ingests batched per-device I/O feed records and folds
// each one, under its device's shard lock and before IngestBatch
// returns, into online per-device statistics — a stats.OnlineIdle
// histogram of inter-arrival gaps and an arima.OnlineAR fitter updated
// incrementally, never refitted from raw history. A decision query
// that follows a feed therefore sees all of it. The Engine answers
// "scrub now / wait / request size" decision queries. The Server wraps
// the engine in an HTTP+JSON surface (/v1/feed, /v1/decide, /v1/sync,
// /v1/checkpoint, /metrics, /healthz) with hand-rolled, allocation-free
// JSON codecs, and checkpoints device state with the same CRC-framed
// gob discipline as fleet checkpoints. One feed request holds at most
// ServerConfig.MaxBodyBytes of body, so ingestion memory is bounded by
// the requests in flight.
//
// Two invariants carry over from the simulator core:
//
//  1. No wall clock. Package scrubd is a sim-clock package under
//     scrublint: every timestamp comes from feed records or query
//     parameters, so feeding the same record stream twice — at any
//     batch size or shard count — produces byte-identical decision
//     sequences and metric snapshots. The service is deterministically
//     replayable in tests.
//  2. Zero allocations steady-state on the query hot path. Decide and
//     the codecs are annotated //scrub:hotpath, enforced by scrublint
//     and pinned by testing.AllocsPerRun tests.
package scrubd

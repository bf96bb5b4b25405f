// StoreBackend: the trace-plane seam between capture and replay (DESIGN.md §14).
//
// A store backend is both a TraceSink (capture one canonical stream) and a
// TraceSource (replay it arbitrarily often, whole-study or per-user). The
// sweep engine, pipeline sharding, and the CLI all program against this
// interface, so WHERE the captured columns live is a deployment choice, not
// an architectural one:
//
//   TraceStore          — everything resident in RAM (trace/trace_store.h)
//   SpillingTraceStore  — bounded RAM, sealed on-disk segments
//                         (trace/spilling_store.h)
//
// Every backend must honor the replay contract: for any batch size and any
// user subset, the emitted event sequence is identical to the stream that
// was captured — downstream ledgers, analyses, and figures are bit-identical
// across backends. The shared column slicer below is the single
// implementation of that contract's batching rules.
#pragma once

#include <cstdint>

#include "trace/batch.h"
#include "trace/sink.h"
#include "trace/trace_source.h"
#include "util/status.h"

namespace wildenergy::trace {

/// Stream one full column set into `sink`, sliced into spans of batch_size
/// (≥ 1) events, preserving the packet/transition interleave. Emits no
/// user brackets — callers own the bracket protocol. Pure read: safe to call
/// concurrently on the same columns from different shard workers.
void replay_column_span(const EventBatch& events, TraceSink& sink, std::size_t batch_size);

class StoreBackend : public TraceSink, public TraceSource {
 public:
  /// Convenience: replace (or, for resuming backends, extend) contents with
  /// one full pass over `source`. Returns the source's emit status, joined
  /// with the backend's own health when capture-side persistence degraded.
  virtual util::Status capture(TraceSource& source, std::size_t batch_size = kDefaultBatchSize);

  // -- introspection --------------------------------------------------------
  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual std::size_t num_users() const = 0;
  /// Total captured events (packets + transitions) across all users.
  [[nodiscard]] virtual std::uint64_t event_count() const = 0;
  /// Full memory footprint: resident column/index capacity plus bytes sealed
  /// into on-disk segments (obs::MemoryUse). Pure so every backend states
  /// both halves explicitly — this replaces the old dual-base memory_bytes()
  /// disambiguation hack.
  [[nodiscard]] obs::MemoryUse memory_use() const override = 0;
  virtual void clear() = 0;

  // -- out-of-core surface (no-ops for all-RAM backends) --------------------
  /// Bytes sealed into on-disk segments — memory_use().spilled_bytes, exposed
  /// separately for spill accounting; only resident bytes count against RAM.
  [[nodiscard]] virtual std::uint64_t spilled_bytes() const { return 0; }
  [[nodiscard]] virtual std::size_t num_segments() const { return 0; }
  /// Flush any resident tail to durable storage.
  virtual util::Status seal() { return util::Status::ok_status(); }
  /// Non-OK when a capture-side fault (failed spill, stale resume) left the
  /// backend unable to replay the full captured stream.
  [[nodiscard]] virtual util::Status health() const { return util::Status::ok_status(); }
};

}  // namespace wildenergy::trace

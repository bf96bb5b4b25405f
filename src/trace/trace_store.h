// TraceStore: the cached columnar trace behind the sweep engine.
//
// A scenario sweep (core/sweep.h) evaluates many (policy × radio × analysis)
// variants over the SAME canonical event stream. Re-running StudyGenerator
// per scenario pays the expensive part — session synthesis, sampling,
// sorting, ~75% of pipeline wall time — K times for identical bytes. A
// TraceStore captures the stream once and replays it arbitrarily often:
//
//   capture (TraceSink side)          replay (TraceSource side)
//   ------------------------          -------------------------
//   generator/reader -> store         store.emit(sink, batch_size)
//                                     store.emit_user(user, sink, batch_size)
//
// Layout: one owned EventBatch per user — the columnar layout (packet
// column, transition column, interleave vector) holding that user's ENTIRE
// stream — in arrival order, plus a user-id index for O(log n) random
// access. Replay slices a user's columns into batch_size spans, reproducing
// exactly the event sequence the original source emitted; downstream outputs
// are therefore bit-identical to consuming the live source, for every batch
// size (trace/batch.h invariants).
//
// The store is single-writer (capture) but its replay side is const after
// capture: concurrent emit_user() calls from different shard workers are
// safe because replay only reads the columns (each caller brings its own
// scratch batch). This is what lets the sweep engine fan (scenario × user)
// shards out over one shared store.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "trace/batch.h"
#include "trace/sink.h"
#include "trace/store_backend.h"
#include "trace/trace_source.h"
#include "util/status.h"

namespace wildenergy::trace {

class TraceStore final : public StoreBackend {
 public:
  // -- capture (TraceSink) --------------------------------------------------
  // Feed the store like any other sink; a study bracket replaces previous
  // contents. Every batch size produces an identical store.
  void on_study_begin(const StudyMeta& meta) override;
  void on_user_begin(UserId user) override;
  void on_user_end(UserId user) override;
  void on_study_end() override;
  void on_batch(const EventBatch& batch) override;

  // -- replay (TraceSource) -------------------------------------------------
  util::Status emit(TraceSink& sink, std::size_t batch_size) override;
  util::Status emit_user(UserId user, TraceSink& sink, std::size_t batch_size) override;
  [[nodiscard]] StudyMeta meta() const override { return meta_; }
  [[nodiscard]] bool supports_user_access() const override { return true; }
  /// User ids in arrival (stream) order — for generator-derived studies this
  /// is ascending user id, which is also the shard-merge order.
  [[nodiscard]] std::vector<UserId> users() const override;

  // -- introspection (StoreBackend) -----------------------------------------
  [[nodiscard]] bool empty() const override { return users_.empty() && meta_.num_users == 0; }
  [[nodiscard]] std::size_t num_users() const override { return users_.size(); }
  /// Total captured events (packets + transitions) across all users.
  [[nodiscard]] std::uint64_t event_count() const override;
  /// Approximate footprint: counts column and index *capacity* (allocation
  /// slack from growth is real resident memory), so spill budgets and
  /// RunStats::MemoryStats never undercount. Nothing spills in this backend.
  [[nodiscard]] obs::MemoryUse memory_use() const override;
  /// One user's full column set (testing / direct consumers).
  [[nodiscard]] const EventBatch* find_user(UserId user) const;

  void clear() override;

 private:
  /// Stream one user's columns into `sink` between its user brackets.
  void replay_user(const EventBatch& events, TraceSink& sink, std::size_t batch_size) const;

  StudyMeta meta_;
  std::vector<EventBatch> users_;        ///< one full column set per user, arrival order
  std::map<UserId, std::size_t> index_;  ///< user id -> users_ position
  EventBatch* current_ = nullptr;        ///< capture target inside a user bracket
};

}  // namespace wildenergy::trace

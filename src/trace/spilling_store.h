// SpillingTraceStore: capture unbounded streams under a RAM budget
// (DESIGN.md §14).
//
// The RAM TraceStore holds every user's columns resident, so study size is
// capped by memory. This backend keeps only a bounded resident tail: as
// captured columns approach `budget_bytes`, complete chunks are sealed into
// WESG segment files (trace/segment.h) under `dir` and their RAM is
// released. A user whose single stream exceeds the budget is split into
// multiple chunks (seq 0..k, the last marked final), so even one enormous
// user cannot blow the cap.
//
//   capture                      spill                      replay
//   -------                      -----                      ------
//   source -> current_ column -> seal resident chunks ->    segments (mmap,
//             per open user      seg_NNNNNN.wesg + mani-    bounded decode)
//             complete chunks    fest rewrite (tmp+rename)  then resident
//             queue resident                                tail, per user
//
// Replay obeys the exact StoreBackend contract: any user, any batch size,
// bit-identical to the RAM store (chunk boundaries only introduce short
// batches, which the batch-interleave contract explicitly allows). The
// replay side mutates nothing, so concurrent emit_user() calls from sweep
// shard workers are safe, same as TraceStore.
//
// Durability: a manifest (manifest.wesm) lists the sealed segments; both
// manifest and segments land via tmp-write + rename, so a crash leaves
// either the old or the new state, never a torn file. Reopening with
// `resume = true` recovers every complete sealed user and capture() then
// pulls ONLY the missing users from the source (per-user access) or skips
// completed ones (forward-only source) — sealed work is never regenerated.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace/batch.h"
#include "trace/segment.h"
#include "trace/sink.h"
#include "trace/store_backend.h"
#include "util/status.h"

namespace wildenergy::trace {

struct SpillOptions {
  /// Directory for segment files + manifest; created if missing.
  std::string dir;
  /// Resident column budget. 0 = fully out-of-core: every user spills as
  /// soon as their bracket closes.
  std::uint64_t budget_bytes = 0;
  /// Reuse sealed segments already in `dir` instead of regenerating them.
  bool resume = false;
};

class SpillingTraceStore final : public StoreBackend {
 public:
  explicit SpillingTraceStore(SpillOptions options) : options_(std::move(options)) {}

  // -- capture (TraceSink) --------------------------------------------------
  void on_study_begin(const StudyMeta& meta) override;
  void on_user_begin(UserId user) override;
  void on_user_end(UserId user) override;
  void on_study_end() override;
  void on_batch(const EventBatch& batch) override;

  /// Captures `source`, reusing recovered users when options_.resume is set:
  /// sources with per-user access are only asked for the missing users;
  /// forward-only sources emit once and the store drops the users it
  /// already holds sealed. The resident tail is sealed at the end, so the
  /// captured stream is durable and resumable; a store fed as a plain sink
  /// (source.emit(store, …)) keeps its tail resident until seal().
  util::Status capture(TraceSource& source, std::size_t batch_size = kDefaultBatchSize) override;

  // -- replay (TraceSource) -------------------------------------------------
  util::Status emit(TraceSink& sink, std::size_t batch_size) override;
  util::Status emit_user(UserId user, TraceSink& sink, std::size_t batch_size) override;
  [[nodiscard]] StudyMeta meta() const override { return meta_; }
  [[nodiscard]] bool supports_user_access() const override { return true; }
  [[nodiscard]] std::vector<UserId> users() const override { return order_; }

  // -- introspection (StoreBackend) -----------------------------------------
  [[nodiscard]] bool empty() const override { return order_.empty() && meta_.num_users == 0; }
  [[nodiscard]] std::size_t num_users() const override { return order_.size(); }
  [[nodiscard]] std::uint64_t event_count() const override;
  /// Resident half counts column/current capacity, user index, segment
  /// indices; mapped segment payloads are page cache, not budget. Spilled
  /// half is the sealed segment bytes on disk.
  [[nodiscard]] obs::MemoryUse memory_use() const override;
  void clear() override;

  [[nodiscard]] std::uint64_t spilled_bytes() const override { return spilled_bytes_; }
  [[nodiscard]] std::size_t num_segments() const override { return segments_.size(); }
  util::Status seal() override;
  [[nodiscard]] util::Status health() const override { return health_; }

  // -- spill/resume accounting ----------------------------------------------
  /// High-water mark of resident column bytes during capture — what the
  /// budget actually bounded.
  [[nodiscard]] std::uint64_t max_resident_bytes() const { return max_resident_bytes_; }
  /// Users recovered from sealed segments by the last resuming capture().
  [[nodiscard]] std::size_t resumed_users() const { return resumed_users_; }
  /// Recover sealed state from `dir` without capturing (capture() does this
  /// implicitly when options_.resume is set).
  util::Status open_existing();

 private:
  static constexpr std::size_t kNoResident = static_cast<std::size_t>(-1);

  struct ChunkRef {
    std::uint32_t segment = 0;  ///< index into segments_
    std::uint32_t chunk = 0;    ///< index into that segment's chunks()
  };
  struct UserState {
    std::vector<ChunkRef> spilled;       ///< sealed chunks, stream order
    std::size_t resident = kNoResident;  ///< index into resident_, if any
    std::uint32_t next_seq = 0;
    bool complete = false;
    bool broken = false;  ///< recovered chunks were torn; regenerate this user
  };
  struct ResidentChunk {
    EventBatch events;
    std::uint32_t seq = 0;
    bool final_chunk = false;
    bool dead = false;  ///< superseded by a recapture before it was sealed
  };

  [[nodiscard]] static std::uint64_t column_bytes(const EventBatch& events);
  void note_source_meta(const StudyMeta& meta);
  void maybe_spill_mid_user();
  util::Status spill_resident();
  util::Status write_manifest();
  util::Status recover();
  util::Status replay_user_body(const UserState& state, UserId user, TraceSink& sink,
                                std::size_t batch_size);
  [[nodiscard]] std::vector<UserId> completed_users() const;

  /// Sinks study-stripped per-user pulls into the store during a resuming
  /// capture (source.emit_user brackets each pull in its own study).
  class BracketStrip;

  SpillOptions options_;
  StudyMeta meta_;
  std::map<UserId, UserState> users_;
  std::vector<UserId> order_;  ///< arrival order (recovered, then captured)
  std::vector<std::unique_ptr<MappedSegment>> segments_;
  std::vector<ResidentChunk> resident_;  ///< sealed at the next spill
  EventBatch current_;                   ///< capture target inside a user bracket
  bool in_user_ = false;
  bool started_ = false;
  /// Study begin must extend, not clear; sealed users are skipped.
  bool resuming_capture_ = false;
  bool recovered_ = false;
  std::uint64_t resident_bytes_ = 0;  ///< complete-chunk column bytes queued
  std::uint64_t max_resident_bytes_ = 0;
  std::uint64_t spilled_bytes_ = 0;
  std::uint64_t next_segment_seq_ = 1;
  std::size_t resumed_users_ = 0;
  util::Status health_;
};

}  // namespace wildenergy::trace

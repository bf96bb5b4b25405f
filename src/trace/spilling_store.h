// SpillingTraceStore: the one trace store — capture a stream once, replay it
// arbitrarily often (DESIGN.md §14).
//
// A scenario sweep (core/sweep.h) evaluates many variants over the SAME
// canonical event stream; re-running the generator per scenario would pay
// session synthesis once per scenario for identical bytes. The store is both
// a TraceSink (capture) and a TraceSource (replay the whole study or any one
// user):
//
//   capture                      spill (only with a dir)    replay
//   -------                      -----------------------    ------
//   source -> current_ column -> seal resident chunks ->    segments (mmap,
//             per open user      seg_NNNNNN.wesg + mani-    bounded decode,
//             complete chunks    fest rewrite (tmp+rename)  pages released)
//             queue resident                                then resident
//                                                           tail, per user
//
// Without a directory (SpillOptions::dir empty) the store is all-resident:
// nothing spills, budget_bytes is ignored, seal() leaves the tail resident,
// and the store never touches the filesystem — resume included. With a
// directory it keeps only a bounded resident tail: before an append would
// take the captured columns past half of `budget_bytes`, the complete
// chunks and the capturing user's columns so far (a non-final chunk) are
// sealed together into one WESG segment file (trace/segment.h) under `dir`
// and their RAM is released. A user whose single stream exceeds half the
// budget is thus split into multiple chunks (seq 0..k, the last marked
// final), so even one enormous user cannot blow the cap. Budget 0 seals
// each user whole as their bracket closes.
//
// Replay contract: for any user and any batch size, the emitted event
// sequence is the captured stream — resident or sealed, downstream outputs
// are bit-identical (chunk boundaries only introduce short batches, which
// the batch-interleave contract allows). The replay side mutates nothing,
// so concurrent emit_user() calls from sweep shard workers are safe.
//
// Sealing: a spill hands the complete resident chunks to one seal, which
// encodes them into a SegmentWriter that drains to the tmp file through a
// bounded buffer, hashing as it goes (nothing segment-sized is built), then
// renames the file into place and opens and verifies it. Seals run on a
// util::OrderedWindow of one job: during a capture() at `threads` > 1 on
// its one sealer thread, while the calling thread keeps appending what the
// source emits; otherwise inline, committed at once. The next spill,
// seal(), clear(), a recapture of a complete user and the destructor commit
// the seal in flight first. So the capturing columns (at most half the
// budget) and the one seal in flight (at most the other half) hold at most
// `budget_bytes` together, plus one batch, at every thread count. A
// committed seal hands its roomiest encoded columns back as the next
// capturing column set, so chunks do not regrow from empty; capture()
// releases both column sets when it returns.
// Commits run on the calling thread, in order — the user chunk refs,
// segments_, spilled_bytes_, then the manifest rewrite — so split points,
// segment names and every byte are the same at any thread count. A seal
// that failed, or threw, latches health() the same way on either thread.
// A seal in flight owns its chunks and frees each once encoded, all but
// the roomiest, which it keeps to hand back.
//
// Durability: a manifest (manifest.wesm) lists the sealed segments; both
// manifest and segments land via tmp-write + rename, so a crash leaves
// either the old or the new state, never a torn file. The manifest lists a
// segment only after it was renamed into place and verified. Reopening with
// `resume = true` recovers every complete sealed user and capture() then
// pulls ONLY the missing users from the source (per-user access) or skips
// completed ones (forward-only source) — sealed work is never regenerated.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/batch.h"
#include "trace/segment.h"
#include "trace/sink.h"
#include "trace/trace_source.h"
#include "util/ordered_window.h"
#include "util/status.h"

namespace wildenergy::trace {

/// Stream one full column set into `sink`, sliced into spans of batch_size
/// (≥ 1) events, preserving the packet/transition interleave. Emits no
/// user brackets — callers own the bracket protocol. Pure read: safe to call
/// concurrently on the same columns from different shard workers.
void replay_column_span(const EventBatch& events, TraceSink& sink, std::size_t batch_size);

struct SpillOptions {
  /// Directory for segment files + manifest; created if missing. Empty keeps
  /// every captured user resident and never touches the filesystem.
  std::string dir{};
  /// Resident column budget: the capturing columns stay within half of it
  /// (plus one batch) and the one seal in flight holds the rest. 0 = fully
  /// out-of-core: every user spills as soon as their bracket closes, so one
  /// user's columns being sealed sit beside one user's being captured — the
  /// bound is then the largest user, twice. Ignored without a directory.
  std::uint64_t budget_bytes = 0;
  /// Reuse sealed segments already in `dir` instead of regenerating them.
  bool resume = false;
};

class SpillingTraceStore final : public TraceSink, public TraceSource {
 public:
  /// Default: no directory, every user resident.
  explicit SpillingTraceStore(SpillOptions options = {}) : options_(std::move(options)) {
    open_seals(1);
  }
  /// Waits for and commits a seal still in flight.
  ~SpillingTraceStore() override;
  SpillingTraceStore(const SpillingTraceStore&) = delete;
  SpillingTraceStore& operator=(const SpillingTraceStore&) = delete;

  // -- capture (TraceSink) --------------------------------------------------
  void on_study_begin(const StudyMeta& meta) override;
  void on_user_begin(UserId user) override;
  void on_user_end(UserId user) override;
  void on_study_end() override;
  void on_batch(const EventBatch& batch) override;

  /// Replaces the contents with one full pass over `source`, reusing
  /// recovered users when options_.resume is set: sources with per-user
  /// access are only asked for the missing users; forward-only sources emit
  /// once and the store drops the users it already holds sealed. The
  /// resident tail is sealed at the end, so with a directory the captured
  /// stream is durable and resumable; a store fed as a plain sink
  /// (source.emit(store, …)) keeps its tail resident until seal(). Returns
  /// the source's emit status, or the store's health when capture degraded.
  /// With `threads` > 1 seals run on one sealer thread, overlapping the
  /// source's parsing, and the source gets the count too (a CSV source
  /// parses on that many workers, TraceSource::emit); the files, the store
  /// and the status are the same as at 1, where seals run inline and the
  /// source emits on the calling thread. No seal is in flight when this
  /// returns.
  util::Status capture(TraceSource& source, std::size_t batch_size = kDefaultBatchSize,
                       unsigned threads = 1);

  // -- replay (TraceSource) -------------------------------------------------
  // batch_size 0 is treated as 1 here, once, for both slicers behind them.
  util::Status emit(TraceSink& sink, std::size_t batch_size) override;
  util::Status emit_user(UserId user, TraceSink& sink, std::size_t batch_size) override;
  [[nodiscard]] StudyMeta meta() const override { return meta_; }
  [[nodiscard]] bool supports_user_access() const override { return true; }
  /// User ids in arrival (stream) order — for generator-derived studies this
  /// is ascending user id, which is also the shard-merge order.
  [[nodiscard]] std::vector<UserId> users() const override { return order_; }

  // -- introspection --------------------------------------------------------
  [[nodiscard]] bool empty() const { return order_.empty() && meta_.num_users == 0; }
  [[nodiscard]] std::size_t num_users() const { return order_.size(); }
  /// Total captured events (packets + transitions) across all users.
  [[nodiscard]] std::uint64_t event_count() const;
  /// Resident half counts the capacity of every column set held (allocation
  /// slack is real memory), user index, segment indices. Mapped segment
  /// pages are not counted: each segment releases them after open and after
  /// every chunk replay (trace/segment.h), so only chunks in flight hold
  /// any. Spilled half is the sealed segment bytes on disk.
  [[nodiscard]] obs::MemoryUse memory_use() const override;
  void clear();

  /// Bytes sealed into on-disk segments — memory_use().spilled_bytes; only
  /// resident bytes count against RAM.
  [[nodiscard]] std::uint64_t spilled_bytes() const { return spilled_bytes_; }
  [[nodiscard]] std::size_t num_segments() const { return segments_.size(); }
  /// Flush the resident tail into a segment; without a directory the tail
  /// stays resident and this returns the store's health.
  util::Status seal();
  /// Non-OK when a capture-side fault (failed spill, stale resume) left the
  /// store unable to replay the full captured stream.
  [[nodiscard]] util::Status health() const { return health_; }

  // -- spill/resume accounting ----------------------------------------------
  /// High-water mark of the captured column bytes (sizes) queued or being
  /// captured — what the budget bounds: at most budget / 2 plus one batch
  /// with a directory and a nonzero budget, the largest user at budget 0.
  [[nodiscard]] std::uint64_t max_resident_bytes() const { return max_resident_bytes_; }
  /// Users recovered from sealed segments by the last resuming capture().
  [[nodiscard]] std::size_t resumed_users() const { return resumed_users_; }
  /// Time the last capture()'s seals were busy (encode, write, rename,
  /// verify), on whichever thread ran them.
  [[nodiscard]] double capture_seal_ms() const { return seal_ms_; }
  /// Time the last capture()'s calling thread waited on an in-flight seal;
  /// 0 when seals ran inline.
  [[nodiscard]] double capture_wait_ms() const { return wait_ms_; }
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

  /// One seal: the chunks it encodes (owned, freed as encoded), its segment
  /// name, and what it produced. run_seal touches nothing else of the
  /// store's but options_.dir and writer_.
  struct SealJob {
    StudyMeta meta;
    std::vector<ResidentChunk> chunks;
    std::vector<UserId> users;  ///< chunks[k]'s user
    std::string name;
    std::unique_ptr<MappedSegment> segment;
    EventBatch recycled;  ///< the roomiest encoded columns, handed back at commit
    util::Status status;
    double busy_ms = 0.0;
  };

  void note_source_meta(const StudyMeta& meta);
  /// Queue the capturing user's columns as a non-final chunk (unless empty),
  /// spill every queued chunk in one seal and capture on into the spare
  /// columns.
  void cut_chunk();
  /// Hand the live resident chunks to a seal: inline, or on the sealer
  /// thread during a capture() at threads > 1. Failures latch health_ (a
  /// seal in flight's at its commit).
  void spill_resident();
  /// A fresh seal window: one sealer thread at `threads` > 1, else inline.
  void open_seals(unsigned threads);
  void run_seal(SealJob& job);
  /// Wait for the seal in flight, if any, and commit it; what it threw
  /// latches health_ like a failed status.
  void finish_seal();
  void commit_seal(SealJob& job);
  util::Status write_manifest();
  /// capture()'s work, before the last seal in flight is committed.
  util::Status capture_pass(TraceSource& source, std::size_t batch_size, unsigned threads);
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
  EventBatch spare_;  ///< the last committed seal's columns, for the next capture target
  bool in_user_ = false;
  bool started_ = false;
  /// Study begin must extend, not clear; sealed users are skipped.
  bool resuming_capture_ = false;
  bool recovered_ = false;
  std::uint64_t resident_bytes_ = 0;  ///< column bytes (sizes) queued in resident_
  std::uint64_t max_resident_bytes_ = 0;
  std::uint64_t spilled_bytes_ = 0;
  std::uint64_t next_segment_seq_ = 1;
  std::size_t resumed_users_ = 0;
  util::Status health_;

  SegmentWriter writer_;  ///< the one encoder; its drain buffer is reused
  double seal_ms_ = 0.0;
  double wait_ms_ = 0.0;
  /// At most one seal in flight, committed in push order. Last: its sealer
  /// thread uses options_ and writer_.
  std::optional<util::OrderedWindow<SealJob>> seals_;
};

}  // namespace wildenergy::trace

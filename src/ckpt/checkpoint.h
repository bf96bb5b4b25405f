// Checkpoint snapshots: versioned, checksummed, atomically-written state of
// a run in progress (DESIGN.md §13).
//
// A Snapshot is the generic payload every checkpointing run shares: the
// StudyMeta it was taken under (stale detection), per-user completion
// progress, named u64 counters (RunStats partials, radio counters, sweep
// progress), and named per-sink sections holding each CheckpointableSink's
// serialized state.
//
// On disk a snapshot is "WECK" magic, a version byte (3: one snapshot covers
// every scenario of a run — each scenario's sections plus one completed-user
// list — and every sink section holds folded aggregates plus pending per-user
// rows; version 2's scenario-major sweep snapshots and version 1's mode-byte
// sections are refused), the payload
// (ckpt/codec.h primitives), and a u64 FNV-1a checksum trailer over every
// byte before it; the checksum is verified before any field is trusted. Files are named ckpt_<seq> with monotonically increasing sequence
// numbers, written to a temp name and renamed into place so a crash mid-write
// never replaces a good checkpoint with a torn one. CheckpointReader scans
// newest-first and falls back to the last good sequence when the newest is
// truncated, bit-flipped, or otherwise undecodable — recovery is never
// silent: the fallback distance is surfaced through LoadResult and RunStats.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/codec.h"
#include "fault/plan.h"
#include "trace/sink.h"
#include "util/status.h"

namespace wildenergy::ckpt {

inline constexpr char kCheckpointMagic[4] = {'W', 'E', 'C', 'K'};
inline constexpr std::uint8_t kCheckpointVersion = 3;

struct Snapshot {
  trace::StudyMeta meta;
  std::vector<trace::UserId> completed_users;
  std::vector<trace::UserId> failed_users;
  /// Named u64 counters, in insertion order (RunStats partials etc.).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Named per-sink sections, in insertion order.
  std::vector<std::pair<std::string, std::string>> sections;

  void set_counter(std::string name, std::uint64_t value);
  /// 0 when the counter is absent (additive counters default to zero).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  void add_section(std::string name, std::string payload);
  [[nodiscard]] const std::string* section(std::string_view name) const;
};

/// Serialize a snapshot into the framed on-disk byte layout.
[[nodiscard]] std::string encode_snapshot(const Snapshot& snapshot, std::uint64_t seq);

/// Decode and validate (magic, version, checksum, exact framing). Returns a
/// positioned data-loss status on any damage.
[[nodiscard]] util::StatusOr<Snapshot> decode_snapshot(std::string_view bytes,
                                                       std::uint64_t* seq_out = nullptr);

/// Reject a snapshot taken under a different study shape (kFailedPrecondition
/// naming the mismatch) — resuming it would fold partials into the wrong
/// slots silently.
[[nodiscard]] util::Status check_snapshot_meta(const Snapshot& snapshot,
                                               const trace::StudyMeta& expected);

struct CheckpointWriterOptions {
  /// Checkpoints older than the newest `keep_last` sequences are deleted
  /// after each successful write.
  std::size_t keep_last = 2;
  /// Optional scripted checkpoint-write faults (kill-and-recover harness).
  fault::FaultPlan* fault_plan = nullptr;
};

class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string dir, CheckpointWriterOptions options = {});

  /// Write one snapshot as the next sequence (tmp-write + rename). A failed
  /// write (I/O error, injected or real) is counted and reported but leaves
  /// previous checkpoints intact — the caller may continue and retry at the
  /// next boundary. An injected hard-stop fault throws fault::ShardFault
  /// *after* the file lands, simulating a process kill at the worst moment.
  [[nodiscard]] util::Status write(const Snapshot& snapshot);

  /// Continue numbering after a resumed run's loaded sequence.
  void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

  [[nodiscard]] std::uint64_t checkpoints_written() const { return checkpoints_written_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t write_failures() const { return write_failures_; }

 private:
  std::string dir_;
  CheckpointWriterOptions options_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t attempts_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t write_failures_ = 0;
};

class CheckpointReader {
 public:
  struct LoadResult {
    Snapshot snapshot;
    std::uint64_t seq = 0;
    /// Sequence actually loaded when one or more newer checkpoints were
    /// rejected (torn/corrupt); 0 when the newest one was good.
    std::uint64_t recovered_from_seq = 0;
    std::uint64_t rejected = 0;  ///< newer checkpoints that failed validation
  };

  /// Load the newest decodable checkpoint in `dir`. kNotFound when the
  /// directory or any checkpoint file is missing; kDataLoss (with the newest
  /// file's diagnosis) when every checkpoint is damaged.
  [[nodiscard]] static util::StatusOr<LoadResult> load_latest(const std::string& dir);
};

}  // namespace wildenergy::ckpt

// ValidatingSink: the decorator enforcing the stream protocol, and the one
// ingest boundary built on it.
//
// The TraceSink contract (sink.h) promises begin/end bracketing, per-user
// non-decreasing timestamps, and in-range enums — promises a reader replaying
// an external (possibly corrupted) file cannot keep by construction. The
// CSV reader (csv_io.h) therefore runs its parser behind a ValidatingSink
// (read_validated below), which turns protocol violations into counted,
// quarantined drops (lenient policies) or a poisoned stream with a precise
// Status (strict), instead of undefined downstream behavior. Every consumer
// of a reader gets a well-formed stream (DESIGN.md §8). The binary WESG
// segments hold the same contract in their own decoder
// (MappedSegment::replay_chunk), always strictly: a checksummed file has no
// damage to skip past.
//
// Invariants enforced:
//   - exactly one study bracket; nothing before on_study_begin or after
//     on_study_end
//   - user brackets nest inside the study and do not nest in each other;
//     on_user_end names the open user
//   - each user id is below the header's num_users and opens one bracket
//     per study — sinks size per-user state by id and merge each user once
//   - packets/transitions arrive inside the bracket of the user they name,
//     with per-user non-decreasing timestamps
//   - timestamps lie inside the study window meta declared (when it declared
//     one) — a wildly out-of-range timestamp would otherwise make day-binned
//     consumers allocate absurd ranges
//   - enums (direction, interface, process states) are in range
//
// Policy semantics (trace/read_policy.h):
//   kStrict       first violation records a Status and stops forwarding
//                 everything after it (the stream is poisoned)
//   kSkipAndCount violating records are dropped + counted + quarantined
//   kBestEffort   additionally, a backwards timestamp is clamped to the
//                 user's previous one and forwarded (counted as repaired)
//
// Drops/repairs are mirrored into obs::MetricsRegistry::current() under
// "validate.records_dropped" / "validate.records_repaired".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "trace/batch.h"
#include "trace/read_policy.h"
#include "trace/sink.h"
#include "util/status.h"

namespace wildenergy::obs {
class Counter;
}  // namespace wildenergy::obs

namespace wildenergy::trace {

class ValidatingSink final : public TraceSink {
 public:
  explicit ValidatingSink(TraceSink* downstream, ReadOptions options = {});

  void on_study_begin(const StudyMeta& meta) override;
  void on_user_begin(UserId user) override;
  void on_user_end(UserId user) override;
  void on_study_end() override;
  /// Validates every event of the batch in stream order and forwards the
  /// survivors (including best-effort repairs) as one batch.
  void on_batch(const EventBatch& batch) override;

  /// OK until the first violation under kStrict; always OK under the
  /// lenient policies (consult the counters instead).
  [[nodiscard]] const util::Status& status() const { return status_; }
  [[nodiscard]] std::uint64_t records_dropped() const { return records_dropped_; }
  [[nodiscard]] std::uint64_t records_repaired() const { return records_repaired_; }
  [[nodiscard]] std::uint64_t violations() const { return records_dropped_ + records_repaired_; }
  [[nodiscard]] const std::vector<QuarantinedRecord>& quarantine() const { return quarantine_; }

  /// End a stream whose input stopped early: an open study closes as
  /// on_study_end would close it (under kBestEffort an open user is
  /// auto-closed and counted as repaired). No-op when no study is open.
  void end_early() {
    if (in_study_) on_study_end();
  }

 private:
  /// Record one violation. Returns true if the current record must be
  /// dropped (false under best-effort repairs and strict-after-poison).
  bool flag(const std::string& reason, const std::string& snippet);
  void note(std::uint64_t& counter, obs::Counter* metric, const std::string& reason,
            const std::string& snippet);
  /// Validate one event; a survivor (or its repair) is appended to out_.
  void check(const PacketRecord& packet);
  void check(const StateTransition& transition);

  TraceSink* downstream_;
  ReadOptions options_;
  // "validate.*" counters resolved once at construction from
  // obs::MetricsRegistry::current() — per-record string-keyed map lookups
  // were the dominant cost of validation on the hot path.
  obs::Counter* dropped_metric_;
  obs::Counter* repaired_metric_;
  EventBatch out_;  ///< reused output batch for on_batch
  util::Status status_;
  bool in_study_ = false;
  bool study_ended_ = false;
  bool has_window_ = false;  ///< meta declared a non-degenerate study window
  std::int64_t window_begin_us_ = 0;
  std::int64_t window_end_us_ = 0;
  UserId num_users_ = 0;                  ///< from the study header
  std::unordered_set<UserId> seen_users_;  ///< every user bracket opened so far
  std::optional<UserId> open_user_;
  std::int64_t last_time_us_ = 0;  ///< per open user; reset at on_user_begin
  std::uint64_t records_seen_ = 0;
  std::uint64_t records_dropped_ = 0;
  std::uint64_t records_repaired_ = 0;
  std::vector<QuarantinedRecord> quarantine_;
};

/// The one ingest boundary: runs a reader's parser behind a ValidatingSink
/// that forwards to `sink` under `options`. `decode` parses its input into
/// the EventBatcher it is handed and fills in the parser's own counts,
/// quarantine, truncation and parse-error Status. Afterwards the batcher is
/// flushed; a stream that ended early (truncated) is closed through the
/// validator, so the result never depends on the batch size; and the
/// validator's drops, repairs, quarantine (up to the cap) and strict-mode
/// Status fold into the returned summary. A protocol error wins over a
/// parse error: the validator only saw records before the parser stopped.
[[nodiscard]] ReadSummary read_validated(
    TraceSink& sink, const ReadOptions& options,
    const std::function<void(EventBatcher&, ReadSummary&)>& decode);

}  // namespace wildenergy::trace

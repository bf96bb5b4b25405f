// Shared vocabulary for fault-tolerant trace ingestion (csv_io.h,
// validating_sink.h).
//
// In-the-wild trace files are routinely truncated or garbled (the paper's
// corpus was 125 GB collected over 22 months, §3). Each reader therefore
// takes a ReadPolicy deciding what a malformed record means, counts what it
// dropped or repaired (also mirrored into obs::MetricsRegistry under
// "ingest.records_dropped" / "ingest.records_repaired"), and quarantines the
// first few offenders verbatim so a failed ingest can be debugged without
// re-reading gigabytes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/batch.h"
#include "util/status.h"

namespace wildenergy::trace {

enum class ReadPolicy : std::uint8_t {
  /// Any malformed record is fatal: the reader stops and reports it.
  kStrict = 0,
  /// Malformed records are skipped, counted, and quarantined; structural
  /// damage the reader cannot resync past (a truncated stream) is still
  /// fatal.
  kSkipAndCount,
  /// Like kSkipAndCount, but repairable damage is repaired (e.g. a
  /// backwards timestamp clamped to the previous one) and a truncated tail
  /// ends the stream instead of failing — everything still counted.
  kBestEffort,
};

[[nodiscard]] constexpr const char* to_string(ReadPolicy policy) {
  switch (policy) {
    case ReadPolicy::kStrict: return "strict";
    case ReadPolicy::kSkipAndCount: return "skip-and-count";
    case ReadPolicy::kBestEffort: return "best-effort";
  }
  return "?";
}

struct ReadOptions {
  ReadPolicy policy = ReadPolicy::kStrict;
  /// Keep at most this many rejected records for post-mortems.
  std::size_t max_quarantine = 8;
  /// Events per EventBatch the readers deliver to the sink (trace/batch.h);
  /// ≥ 1 (0 is treated as 1). Outputs are bit-identical for every value.
  /// Shares trace::kDefaultBatchSize with core::RunOptions::batch_size —
  /// one documented default; CLI --batch-size threads through both.
  std::size_t batch_size = kDefaultBatchSize;
  /// Optional app-name resolution for the CSV reader: when set, a
  /// non-numeric app field is resolved through this (return kNoApp for
  /// unknown names). Callers wire AppCatalog::find here, whose transparent
  /// name index makes reader-path resolution O(1) with no per-row allocation.
  /// A read at more than one thread (CsvTraceSource::emit's `threads`) calls
  /// it from several parse workers at once, so it must be thread-safe there;
  /// AppCatalog::find only reads. An exception it throws propagates from
  /// the read before any line of the block holding the offending line is
  /// applied.
  std::function<AppId(std::string_view)> app_resolver;
};

/// One rejected (or repaired) record, kept verbatim for diagnosis.
struct QuarantinedRecord {
  std::uint64_t location = 0;  ///< 1-based input line (parser) or record ordinal (protocol)
  std::string reason;
  std::string snippet;  ///< truncated echo of the offending input
};

/// What one read of a trace stream saw: the one result type of
/// read_csv_trace and CsvTraceSource. The reader validates the stream
/// protocol behind its parser (trace/validating_sink.h), so the counts, the
/// quarantine and a strict-mode Status cover both the record syntax and the
/// protocol.
struct ReadSummary {
  util::Status status;
  std::uint64_t records = 0;  ///< input lines read, skipped ones included
  std::uint64_t records_dropped = 0;
  std::uint64_t records_repaired = 0;
  bool truncated = false;  ///< kBestEffort: the stream ended early and was closed
  std::vector<QuarantinedRecord> quarantine;  ///< first few rejects, verbatim
  /// Busy time of the CSV reader's parse workers, summed over workers; 0
  /// when every line was parsed on the reading thread (threads ≤ 1).
  double parse_ms = 0.0;

  [[nodiscard]] bool ok() const { return status.ok(); }
  [[nodiscard]] const std::string& error() const { return status.message(); }
  [[nodiscard]] bool degraded() const {
    return records_dropped > 0 || records_repaired > 0 || truncated;
  }
};

}  // namespace wildenergy::trace

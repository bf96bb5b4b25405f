// Compact binary trace serialization.
//
// The study's raw dataset was 125 GB (§3); CSV is convenient but ~4x larger
// and slower to parse than necessary for archival. This format stores the
// same stream as csv_io.h with varint fields and delta-encoded timestamps:
//
//   header:  magic "WETR", u8 version (=1)
//   records: u8 tag ('M','U','P','T','V','E') followed by varint fields;
//            'P' and 'T' timestamps are deltas from the previous event of
//            the same user (signed zig-zag), joules are f64 bits.
//
// Integrity: a running FNV-1a checksum over the payload is appended after
// the final 'E' record and verified on read; any byte after the checksum is
// trailing garbage and rejected. Varints are capped at 10 bytes ("overlong
// varint"), and EOF mid-record is a distinct, clean truncation error.
#pragma once

#include <iosfwd>

#include "trace/read_policy.h"
#include "trace/sink.h"
#include "trace/trace_source.h"
#include "util/status.h"

namespace wildenergy::trace {

class BinaryTraceWriter final : public TraceSink {
 public:
  explicit BinaryTraceWriter(std::ostream& os);

  void on_study_begin(const StudyMeta& meta) override;
  void on_user_begin(UserId user) override;
  void on_packet(const PacketRecord& packet) override;
  void on_transition(const StateTransition& transition) override;
  void on_user_end(UserId user) override;
  void on_study_end() override;

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  void put_byte(std::uint8_t b);
  void put_varint(std::uint64_t v);
  void put_f64(double v);

  std::ostream& os_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t checksum_ = 0xCBF29CE484222325ULL;
  std::int64_t last_time_us_ = 0;
};

/// Parse a binary trace and replay it into `sink`. Verifies magic, version
/// and checksum, and — like read_csv_trace — checks the stream protocol
/// behind the decoder with a ValidatingSink under the same options, so
/// `sink` only ever sees a well-formed stream (DESIGN.md §8). Under
/// ReadPolicy::kStrict any damage is fatal; under kSkipAndCount records
/// with out-of-range fields are skipped and counted (framing damage —
/// truncation, overlong varints, unknown tags, checksum mismatch — is still
/// fatal, since the format cannot resync past it); under kBestEffort framing
/// damage ends the stream instead (truncated=true, the open user closed) and
/// a checksum mismatch is reported via checksum_ok rather than an error.
/// Errors carry the byte offset of the failure; ReadSummary::records counts
/// records read. Drops/repairs are also counted in
/// obs::MetricsRegistry::current() under "ingest.*" (decoder) and
/// "validate.*" (protocol).
[[nodiscard]] ReadSummary read_binary_trace(std::istream& is, TraceSink& sink,
                                            const ReadOptions& options = {});

/// TraceSource over a binary trace stream; the binary twin of
/// CsvTraceSource (csv_io.h) with identical semantics: forward-only,
/// rewind-on-reemit, per-emit batch_size override, ReadSummary reporting.
class BinaryTraceSource final : public TraceSource {
 public:
  explicit BinaryTraceSource(std::istream& is, ReadOptions options = {})
      : is_(is), options_(options) {}

  util::Status emit(TraceSink& sink, std::size_t batch_size) override;
  /// Zero-valued until the first emit() has passed the 'M' record.
  [[nodiscard]] StudyMeta meta() const override { return meta_; }

  /// Degradation detail of the last emit(), including checksum status.
  [[nodiscard]] const ReadSummary& summary() const { return summary_; }

 private:
  std::istream& is_;
  ReadOptions options_;
  StudyMeta meta_{};
  ReadSummary summary_;
  bool consumed_ = false;
};

}  // namespace wildenergy::trace

// CSV serialization of trace streams.
//
// Lets users persist synthetic traces, re-analyze external traces, and
// round-trip data between tools. One line per event:
//   M,<num_users>,<num_apps>,<begin_us>,<end_us>          (study meta, once)
//   U,<user>                                              (user begin)
//   P,<time_us>,<user>,<app>,<flow>,<bytes>,<dir>,<iface>,<state>,<joules>
//   T,<time_us>,<user>,<app>,<from_state>,<to_state>
//   V,<user>                                              (user end)
//   E                                                     (study end)
// Directions are "up"/"down"; interfaces "cell"/"wifi"; states use
// trace::to_string spellings. The <app> field is a numeric AppId; when
// ReadOptions::app_resolver is set (e.g. AppCatalog::find), a non-numeric
// field is resolved as an app name in O(1).
#pragma once

#include <iosfwd>

#include "trace/read_policy.h"
#include "trace/sink.h"
#include "trace/trace_source.h"
#include "util/status.h"

namespace wildenergy::trace {

/// A TraceSink that writes the stream as CSV lines.
class CsvTraceWriter final : public TraceSink {
 public:
  explicit CsvTraceWriter(std::ostream& os) : os_(os) {}

  void on_study_begin(const StudyMeta& meta) override;
  void on_user_begin(UserId user) override;
  void on_packet(const PacketRecord& packet) override;
  void on_transition(const StateTransition& transition) override;
  void on_user_end(UserId user) override;
  void on_study_end() override;

 private:
  std::ostream& os_;
};

/// Parse a CSV trace and replay it into `sink` (I: validate inputs at the
/// boundary). The parser checks each line's syntax and fields; a
/// ValidatingSink behind it checks the stream protocol (bracketing, time
/// order, study window) under the same options, so `sink` only ever sees a
/// well-formed stream (DESIGN.md §8). Under ReadPolicy::kStrict the first
/// malformed line or protocol violation is fatal; the lenient policies
/// skip-and-count it (see trace/read_policy.h). Parse errors carry the
/// 1-based line number, the offending field index, and a truncated echo of
/// the line; ReadSummary::records counts lines read. Drops and repairs are
/// also counted in obs::MetricsRegistry::current() under
/// "ingest.records_dropped" / "ingest.records_repaired" (parser) and
/// "validate.records_dropped" / "validate.records_repaired" (protocol).
///
/// The reader pulls `is` in blocks of whole lines: it reads 128 KiB
/// (istream::read) and cuts after the last '\n', the partial line behind the
/// cut opening the next block; a line longer than that grows its block.
/// Lines keep std::getline's semantics — a final line without '\n' is a
/// line, '\r' stays part of its line — so ReadSummary::records and every
/// line number are what a getline loop would count. Each block is decoded
/// in two steps: a pure per-line parse (split into at most 10 field views,
/// numbers, enums, the kBestEffort joules repair, the line's error), then an
/// ordered apply on the reading thread (line numbers, the study-end rule,
/// drops, repairs, quarantine, the ingest counters and every batch handed
/// to the sink). Blocks parse on a util::OrderedWindow of 2 × threads
/// blocks: at `threads` > 1 that many workers parse ahead of the apply, so
/// the sink sees the same batches and brackets, and the summary is the
/// same, at every thread count; at 1 both steps run here and no thread
/// starts. ReadSummary::parse_ms is the
/// workers' busy time. Because whole blocks are read ahead, a strict failure
/// leaves `is` positioned past the failing line — up to the in-flight window
/// of blocks past it — not just after it; CsvTraceSource::emit rewinds
/// before a second read all the same.
[[nodiscard]] ReadSummary read_csv_trace(std::istream& is, TraceSink& sink,
                                         const ReadOptions& options = {},
                                         unsigned threads = 1);

/// TraceSource over a CSV stream: the reader behind StudyPipeline / CLI
/// --replay, lifted onto the one producer API. Forward-only — no per-user
/// random access — so the engine splits it per user on the reading thread.
/// A second emit() rewinds seekable streams and fails cleanly on pipes.
/// The two-argument emit() parses on the calling thread; emit(sink,
/// batch_size, threads), which a sweep's capture and the engine's
/// forward-only path call with their thread count, parses lines on that
/// many workers and applies them in order here (read_csv_trace). When a
/// sweep captures it into a sealed store at more than one thread, the
/// reading thread applies lines and appends columns while workers parse
/// and a sealer thread encodes, writes and verifies the segments
/// (SpillingTraceStore::capture).
class CsvTraceSource final : public TraceSource {
 public:
  /// `options.batch_size` is overridden per emit() by the caller's
  /// batch_size; the other ReadOptions fields (policy, quarantine cap) stick.
  explicit CsvTraceSource(std::istream& is, ReadOptions options = {})
      : is_(is), options_(options) {}

  util::Status emit(TraceSink& sink, std::size_t batch_size) override {
    return emit(sink, batch_size, 1);
  }
  util::Status emit(TraceSink& sink, std::size_t batch_size, unsigned threads) override;
  /// The last emit()'s parse workers' busy time (ReadSummary::parse_ms).
  [[nodiscard]] double emit_worker_ms() const override { return summary_.parse_ms; }
  /// Zero-valued until the first emit() has passed the header line.
  [[nodiscard]] StudyMeta meta() const override { return meta_; }

  /// What the last emit() read (drops, repairs, quarantine, status).
  [[nodiscard]] const ReadSummary& summary() const { return summary_; }

 private:
  std::istream& is_;
  ReadOptions options_;
  StudyMeta meta_{};
  ReadSummary summary_;
  bool consumed_ = false;
};

}  // namespace wildenergy::trace

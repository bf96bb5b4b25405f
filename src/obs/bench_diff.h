// bench_diff: the perf-regression gate's comparison logic.
//
// The bench binaries append one JSON record per result to the file named by
// WILDENERGY_BENCH_JSON (bench/bench_util.h); BENCH_pipeline.json is the
// committed trajectory of those records. diff_bench_logs() pairs a fresh run
// against that baseline by (bench, threads, batch_size) — taking the LAST
// baseline record per key, i.e. the most recent committed measurement — and
// flags any pair whose throughput dropped by more than the threshold.
// Records whose scale differs (users/days/seed) are skipped rather than
// compared: a 4-user CI smoke run must not be judged against the committed
// 20-user trajectory. So are records that both name their host's CPU count
// (`host_cpus`) when the counts differ; a record without the field (every
// baseline written before it existed) still pairs, so the gate stays live.
//
// Pure string-to-struct logic, no I/O: the tools/bench_diff.cpp CLI does the
// file reading, and tests feed literal JSONL.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wildenergy::obs {

/// One bench JSONL record, reduced to the fields the gate compares on.
struct BenchRecord {
  std::string bench;
  std::int64_t threads = 1;
  std::int64_t batch_size = -1;  ///< -1 = field absent
  std::int64_t users = 0;
  std::int64_t days = 0;
  std::int64_t seed = 0;
  double wall_ms = 0.0;
  double packets_per_sec = 0.0;
  std::int64_t host_cpus = 0;  ///< hardware threads of the recording host; 0 = field absent
  /// Record came from a resumed (checkpoint-restored) run: it covers only
  /// the post-resume remainder, so it must never pair with a full-run
  /// baseline. Parsed from the "resumed" extra field.
  bool resumed = false;

  /// Pairing key: bench name + threads + batch_size (when present) +
  /// " resumed" for resumed partials.
  [[nodiscard]] std::string key() const;
};

/// Parse a WILDENERGY_BENCH_JSON log (one JSON object per line). Lines that
/// are not valid records (blank, malformed, missing "bench") are skipped.
[[nodiscard]] std::vector<BenchRecord> parse_bench_log(std::string_view jsonl);

struct BenchDiffOptions {
  /// Relative throughput drop that fails the gate: 0.25 = fail when a fresh
  /// run is more than 25% slower than its baseline record.
  double threshold = 0.25;
  /// Per-bench overrides, keyed by exact bench name (noisier benches get a
  /// looser gate).
  std::map<std::string, double> per_bench;

  [[nodiscard]] double threshold_for(const std::string& bench) const;
};

enum class BenchDiffStatus : std::uint8_t {
  kOk = 0,          ///< within threshold
  kImproved,        ///< faster by more than the threshold (informational)
  kRegressed,       ///< slower by more than the threshold — fails the gate
  kScaleMismatch,   ///< users/days/seed (or both-present host_cpus) differ; skipped
  kMissingBaseline  ///< fresh bench with no committed baseline record
};

[[nodiscard]] const char* to_string(BenchDiffStatus s);

struct BenchDiffEntry {
  std::string key;
  std::string bench;
  double baseline_pps = 0.0;
  double fresh_pps = 0.0;
  double delta = 0.0;  ///< (fresh - baseline) / baseline; 0 when not comparable
  double threshold = 0.0;
  BenchDiffStatus status = BenchDiffStatus::kOk;
};

struct BenchDiffReport {
  std::vector<BenchDiffEntry> entries;  ///< fresh-run order

  [[nodiscard]] bool has_regressions() const;
  [[nodiscard]] std::size_t count(BenchDiffStatus s) const;
  /// GitHub-flavored markdown summary table (the CI artifact).
  [[nodiscard]] std::string to_markdown() const;
  /// Plain-text summary for the terminal.
  void print(std::ostream& os) const;
};

/// Compare a fresh bench log against the committed baseline log.
[[nodiscard]] BenchDiffReport diff_bench_logs(std::string_view baseline_jsonl,
                                              std::string_view fresh_jsonl,
                                              const BenchDiffOptions& options = {});

}  // namespace wildenergy::obs

// Robustness tests for trace ingestion: the hardened CSV reader
// (trace/csv_io.h), the protocol-enforcing ValidatingSink
// (trace/validating_sink.h), and the corruption property "an injected fault
// is surfaced or counted — a read that looks clean produces the clean ledger".
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "deliver.h"
#include "energy/ledger.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "sim/generator.h"
#include "trace/csv_io.h"
#include "trace/validating_sink.h"

namespace wildenergy {
namespace {

using trace::ReadOptions;
using trace::ReadPolicy;

sim::StudyConfig tiny_config() {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/7);
  cfg.num_users = 1;
  cfg.num_days = 1;
  cfg.total_apps = 30;
  return cfg;
}

std::string tiny_csv() {
  std::ostringstream os;
  trace::CsvTraceWriter writer{os};
  sim::StudyGenerator{tiny_config()}.run(writer);
  return os.str();
}

ReadOptions with_policy(ReadPolicy policy) {
  ReadOptions options;
  options.policy = policy;
  return options;
}

// ---------------------------------------------------------------------------
// CSV diagnostics

TEST(CsvRobustness, ErrorsCarryLineFieldAndEcho) {
  const std::string csv =
      "M,1,80,0,86400000000\n"
      "U,0\n"
      "P,xyz,0,5,384,900,up,cell,service,0.5\n"
      "V,0\n"
      "E\n";
  std::istringstream is{csv};
  trace::TraceCollector sink;
  const auto result = trace::read_csv_trace(is, sink);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("line 3"), std::string::npos) << result.error();
  EXPECT_NE(result.error().find("field 1"), std::string::npos) << result.error();
  EXPECT_NE(result.error().find("'xyz'"), std::string::npos) << result.error();
  EXPECT_NE(result.error().find("P,xyz,0,5"), std::string::npos) << result.error();  // echo
}

TEST(CsvRobustness, FieldCountErrorsNameTheLine) {
  std::istringstream is{"M,1,80,0,86400000000\nU,0\nP,100\n"};
  trace::TraceCollector sink;
  const auto result = trace::read_csv_trace(is, sink);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("line 3"), std::string::npos) << result.error();
  EXPECT_NE(result.error().find("expected 10 fields, got 2"), std::string::npos)
      << result.error();
}

TEST(CsvRobustness, MissingEndRecordIsTruncation) {
  const std::string csv = "M,1,80,0,86400000000\nU,0\nV,0\n";  // no E
  {
    std::istringstream is{csv};
    trace::TraceCollector sink;
    const auto result = trace::read_csv_trace(is, sink);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().find("truncated stream"), std::string::npos) << result.error();
  }
  {
    std::istringstream is{csv};
    trace::TraceCollector sink;
    const auto result = trace::read_csv_trace(is, sink, with_policy(ReadPolicy::kBestEffort));
    ASSERT_TRUE(result.ok()) << result.error();
    EXPECT_TRUE(result.truncated);
  }
}

TEST(CsvRobustness, RecordsAfterStudyEndAreErrors) {
  std::istringstream is{"M,1,80,0,86400000000\nE\nU,0\n"};
  trace::TraceCollector sink;
  const auto result = trace::read_csv_trace(is, sink);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("after study end"), std::string::npos) << result.error();
}

TEST(CsvRobustness, SkipAndCountCountsDropsAndMetrics) {
  const std::string csv =
      "M,1,80,0,86400000000\n"
      "U,0\n"
      "P,1000,0,5,1,100,sideways,cell,service,0.5\n"  // bad direction
      "P,2000,0,5,1,200,up,cell,service,0.5\n"
      "X,what\n"  // unknown tag
      "V,0\n"
      "E\n";
  obs::MetricsRegistry registry;
  const obs::ScopedMetricsRegistry scoped{&registry};
  std::istringstream is{csv};
  trace::TraceCollector sink;
  const auto result = trace::read_csv_trace(is, sink, with_policy(ReadPolicy::kSkipAndCount));
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.records_dropped, 2u);
  EXPECT_EQ(registry.counter_value("ingest.records_dropped"), 2u);
  ASSERT_EQ(result.quarantine.size(), 2u);
  EXPECT_EQ(result.quarantine[0].location, 3u);  // 1-based line numbers
  EXPECT_EQ(result.quarantine[1].location, 5u);
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(sink.packets()[0].bytes, 200u);
}

TEST(CsvRobustness, BestEffortRepairsUnparseableJoules) {
  const std::string csv =
      "M,1,80,0,86400000000\n"
      "U,0\n"
      "P,1000,0,5,1,100,up,cell,service,garbage\n"
      "V,0\n"
      "E\n";
  std::istringstream is{csv};
  trace::TraceCollector sink;
  const auto result = trace::read_csv_trace(is, sink, with_policy(ReadPolicy::kBestEffort));
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.records_repaired, 1u);
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(sink.packets()[0].joules, 0.0);
  EXPECT_EQ(sink.packets()[0].bytes, 100u);
}

// ---------------------------------------------------------------------------
// ValidatingSink protocol enforcement

trace::PacketRecord packet_at(std::int64_t us, trace::UserId user = 0) {
  trace::PacketRecord p;
  p.time.us = us;
  p.user = user;
  p.bytes = 100;
  return p;
}

trace::StudyMeta windowed_meta() {
  trace::StudyMeta meta;
  meta.num_users = 2;
  meta.study_begin.us = 0;
  meta.study_end.us = 1'000'000;
  return meta;
}

TEST(ValidatingSink, StrictPoisonsTheStreamAtTheFirstViolation) {
  trace::TraceCollector collector;
  trace::ValidatingSink validator{&collector};
  validator.on_study_begin(windowed_meta());
  validator.on_user_begin(0);
  deliver(validator, packet_at(500));
  deliver(validator, packet_at(100));  // backwards: first violation
  deliver(validator, packet_at(900));  // poisoned: not forwarded
  validator.on_user_end(0);
  validator.on_study_end();
  EXPECT_FALSE(validator.status().ok());
  EXPECT_NE(validator.status().message().find("backwards"), std::string::npos)
      << validator.status().message();
  EXPECT_EQ(collector.packets().size(), 1u);  // only the pre-violation packet
}

TEST(ValidatingSink, SkipAndCountDropsOnlyTheViolatingRecords) {
  trace::TraceCollector collector;
  trace::ValidatingSink validator{&collector, with_policy(ReadPolicy::kSkipAndCount)};
  validator.on_study_begin(windowed_meta());
  deliver(validator, packet_at(10));  // outside any user bracket
  validator.on_user_begin(0);
  deliver(validator, packet_at(500));
  deliver(validator, packet_at(100));      // backwards
  deliver(validator, packet_at(600, 1));   // wrong user inside user 0's bracket
  deliver(validator, packet_at(2'000'000));  // outside the study window
  deliver(validator, packet_at(900));
  validator.on_user_end(0);
  validator.on_study_end();
  EXPECT_TRUE(validator.status().ok());
  EXPECT_EQ(validator.records_dropped(), 4u);
  EXPECT_EQ(collector.packets().size(), 2u);
  EXPECT_EQ(validator.quarantine().size(), 4u);
}

TEST(ValidatingSink, BestEffortClampsBackwardsTimestampsAndClosesOpenUsers) {
  obs::MetricsRegistry registry;
  const obs::ScopedMetricsRegistry scoped{&registry};
  trace::TraceCollector collector;
  trace::ValidatingSink validator{&collector, with_policy(ReadPolicy::kBestEffort)};
  validator.on_study_begin(windowed_meta());
  validator.on_user_begin(0);
  deliver(validator, packet_at(500));
  deliver(validator, packet_at(100));  // clamped to 500, forwarded
  validator.on_user_begin(1);           // user 0 left open: auto-closed
  deliver(validator, packet_at(50, 1));
  validator.on_study_end();  // user 1 left open: auto-closed
  EXPECT_TRUE(validator.status().ok());
  EXPECT_EQ(validator.records_repaired(), 3u);
  EXPECT_EQ(registry.counter_value("validate.records_repaired"), 3u);
  ASSERT_EQ(collector.packets().size(), 3u);
  EXPECT_EQ(collector.packets()[1].time.us, 500);  // the clamp
}

TEST(ValidatingSink, RejectsEnumAndBracketViolations) {
  trace::TraceCollector collector;
  trace::ValidatingSink validator{&collector, with_policy(ReadPolicy::kSkipAndCount)};
  validator.on_study_begin(windowed_meta());
  validator.on_study_begin(windowed_meta());  // nested study begin
  validator.on_user_begin(0);
  trace::PacketRecord bad_enum = packet_at(10);
  bad_enum.state = static_cast<trace::ProcessState>(97);
  deliver(validator, bad_enum);
  validator.on_user_end(1);  // ends a user that is not open
  validator.on_user_end(0);
  validator.on_user_begin(0);               // a second bracket for user 0
  validator.on_user_begin(4'000'000'000u);  // past the header's 2 users
  validator.on_study_end();
  validator.on_study_end();  // second study end
  EXPECT_EQ(validator.records_dropped(), 6u);
  EXPECT_TRUE(collector.packets().empty());
  ASSERT_EQ(validator.quarantine().size(), 6u);
  EXPECT_EQ(validator.quarantine()[3].reason, "user 0 appears twice in the study");
  EXPECT_EQ(validator.quarantine()[4].reason, "user 4000000000 outside the study's 2 users");
}

// ---------------------------------------------------------------------------
// The ingest boundary: a pipeline over a reader never sees a malformed
// stream. Strict runs fail with a positioned error; lenient runs count the
// damage in the reader's summary.

/// A 3-user CSV trace with one protocol violation the line parser cannot
/// see: `damage` edits the lines of a clean trace.
std::string damaged_csv(const std::function<void(std::vector<std::string>&)>& damage) {
  sim::StudyConfig cfg = tiny_config();
  cfg.num_users = 3;
  std::ostringstream os;
  trace::CsvTraceWriter writer{os};
  sim::StudyGenerator{cfg}.run(writer);
  std::istringstream clean{os.str()};
  std::vector<std::string> lines;
  for (std::string line; std::getline(clean, line);) lines.push_back(line);
  damage(lines);
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

std::int64_t csv_time(const std::string& line) {
  return std::stoll(line.substr(2, line.find(',', 2) - 2));
}

/// Swap two adjacent packets of user 0 with distinct timestamps.
void swap_backwards(std::vector<std::string>& lines) {
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    if (lines[i].rfind("P,", 0) == 0 && lines[i + 1].rfind("P,", 0) == 0 &&
        csv_time(lines[i]) < csv_time(lines[i + 1])) {
      std::swap(lines[i], lines[i + 1]);
      return;
    }
  }
  FAIL() << "no adjacent packets with distinct timestamps";
}

/// Delete user 0's end record.
void drop_user_end(std::vector<std::string>& lines) {
  const auto it = std::find(lines.begin(), lines.end(), "V,0");
  ASSERT_NE(it, lines.end());
  lines.erase(it);
}

/// Append a copy of user 0's bracket after the last user.
void repeat_user(std::vector<std::string>& lines) {
  const auto begin = std::find(lines.begin(), lines.end(), "U,0");
  const auto end = std::find(lines.begin(), lines.end(), "V,0");
  const auto study_end = std::find(lines.begin(), lines.end(), "E");
  ASSERT_NE(end, lines.end());
  ASSERT_NE(study_end, lines.end());
  const std::vector<std::string> copy(begin, end + 1);
  lines.insert(study_end, copy.begin(), copy.end());
}

TEST(IngestBoundary, StrictPipelineRunFailsWithAPositionedError) {
  for (const auto& [what, damage] :
       {std::pair{"backwards timestamp", &swap_backwards},
        std::pair{"missing user end", &drop_user_end},
        std::pair{"repeated user", &repeat_user}}) {
    SCOPED_TRACE(what);
    std::istringstream is{damaged_csv(damage)};
    trace::CsvTraceSource source{is};
    core::StudyPipeline pipeline{&source};
    const auto stats = pipeline.run();
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), util::StatusCode::kFailedPrecondition);
    EXPECT_NE(stats.status().message().find("record "), std::string::npos)
        << stats.status().to_string();
  }
}

TEST(IngestBoundary, SkipAndCountPipelineCountsTheDrop) {
  obs::MetricsRegistry registry;
  const obs::ScopedMetricsRegistry scoped{&registry};
  for (const auto& [what, damage] :
       {std::pair{"backwards timestamp", &swap_backwards},
        std::pair{"missing user end", &drop_user_end},
        std::pair{"repeated user", &repeat_user}}) {
    SCOPED_TRACE(what);
    std::istringstream is{damaged_csv(damage)};
    trace::CsvTraceSource source{is, with_policy(ReadPolicy::kSkipAndCount)};
    core::StudyPipeline pipeline{&source};
    const auto stats = pipeline.run();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    EXPECT_GT(source.summary().records_dropped, 0u);
    EXPECT_FALSE(source.summary().quarantine.empty());
  }
}

// ---------------------------------------------------------------------------
// Corruption property: a fault is surfaced or counted; a read with nothing
// to report reproduces the clean ledger exactly.

struct ReplayOutcome {
  bool surfaced = false;  ///< any error, drop, repair, truncation, or quarantine
  double joules = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

ReplayOutcome replay(const std::string& data, ReadPolicy policy) {
  ReplayOutcome out;
  obs::MetricsRegistry registry;  // keep test metrics off the global registry
  const obs::ScopedMetricsRegistry scoped{&registry};
  energy::EnergyLedger ledger;
  std::istringstream is{data};
  // The reader alone: it validates the stream protocol itself, so protocol
  // damage surfaces in the same summary as parse damage.
  const trace::ReadSummary result = trace::read_csv_trace(is, ledger, with_policy(policy));
  const bool clean_framing = result.ok() && !result.truncated && result.quarantine.empty();
  out.surfaced = !clean_framing || result.records_dropped > 0 || result.records_repaired > 0;
  out.joules = ledger.total_joules();
  out.bytes = ledger.total_bytes();
  out.packets = ledger.total_packets();
  return out;
}

TEST(CorruptionProperty, CsvFieldFaultsAreAlwaysSurfaced) {
  const std::string clean_data = tiny_csv();
  const ReplayOutcome clean = replay(clean_data, ReadPolicy::kStrict);
  ASSERT_FALSE(clean.surfaced);
  ASSERT_GT(clean.packets, 0u);

  for (const auto kind :
       {fault::CorruptionKind::kBadEnum, fault::CorruptionKind::kBadTimestamp}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const auto damaged = fault::apply_corruption(clean_data, {kind, seed});
      ASSERT_TRUE(damaged.ok());
      for (const auto policy :
           {ReadPolicy::kStrict, ReadPolicy::kSkipAndCount, ReadPolicy::kBestEffort}) {
        const ReplayOutcome out = replay(damaged.value(), policy);
        EXPECT_TRUE(out.surfaced)
            << fault::to_string(kind) << " seed " << seed << " policy "
            << trace::to_string(policy);
      }
    }
  }
}

}  // namespace
}  // namespace wildenergy

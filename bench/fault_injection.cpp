// Fault-injection bench (DESIGN.md §8): what corruption costs at ingestion
// time, and what the retry-then-skip engine policy costs at execution time.
//
// Two views:
//  1. a generated study serialized to CSV, damaged by each CSV field-level
//     fault::CorruptionKind, then read back under every trace::ReadPolicy
//     into an EnergyLedger (the reader validates the stream protocol behind
//     its parser) — wall time plus how the damage surfaced (error / drops /
//     repairs). Byte-level damage to the binary WESG segments is caught by
//     their checksum on open (tests/out_of_core_test.cpp), so it has no
//     policy to compare;
//  2. the sharded pipeline under a scripted FaultPlan: clean run vs a shard
//     that fails once and is retried vs a shard that exhausts its retries
//     and is skipped (kRetryThenSkip).
//
// Each measured run emits a WILDENERGY_BENCH_JSON record (bench_util.h)
// named "fault_injection/...".
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "energy/ledger.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "sim/generator.h"
#include "trace/csv_io.h"
#include "util/table.h"

#include "bench_util.h"

namespace {

using namespace wildenergy;

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

struct ReadOutcome {
  double wall_ms = 0.0;
  std::string outcome;  ///< "clean", "error", "degraded"
  std::uint64_t dropped = 0;
  std::uint64_t repaired = 0;
  std::uint64_t packets = 0;
};

ReadOutcome timed_read(const std::string& data, trace::ReadPolicy policy) {
  ReadOutcome out;
  energy::EnergyLedger ledger;
  trace::ReadOptions options;
  options.policy = policy;
  std::istringstream is{data};
  const auto start = std::chrono::steady_clock::now();
  // The reader validates the stream protocol itself, so the summary covers
  // parse and protocol damage alike.
  const trace::ReadSummary r = trace::read_csv_trace(is, ledger, options);
  out.wall_ms = elapsed_ms(start);
  out.dropped = r.records_dropped;
  out.repaired = r.records_repaired;
  out.outcome = !r.ok() ? "error" : r.degraded() ? "degraded" : "clean";
  out.packets = ledger.total_packets();
  return out;
}

}  // namespace

int main() {
  const sim::StudyConfig cfg = benchutil::config_from_env(/*default_days=*/60);
  benchutil::print_header("Fault injection: corrupted ingestion & engine degradation", cfg);

  // Serialize the study once.
  std::ostringstream csv_os;
  {
    trace::CsvTraceWriter csv_writer{csv_os};
    sim::StudyGenerator{cfg}.run(csv_writer);
  }
  const std::string csv_data = csv_os.str();
  std::cout << "serialized: " << csv_data.size() / 1024 << " KiB CSV\n\n";

  constexpr trace::ReadPolicy kPolicies[] = {trace::ReadPolicy::kStrict,
                                             trace::ReadPolicy::kSkipAndCount,
                                             trace::ReadPolicy::kBestEffort};

  // View 1: every corruption kind x read policy, plus the undamaged baseline.
  std::cout << "-- corrupted-trace ingestion (validating reader -> ledger) --\n";
  TextTable table({"fault", "policy", "wall ms", "outcome", "dropped", "repaired"});
  struct Case {
    const char* label;
    std::string data;
  };
  std::vector<Case> cases;
  cases.push_back({"none", csv_data});
  const fault::CorruptionKind kCsvKinds[] = {fault::CorruptionKind::kBadEnum,
                                             fault::CorruptionKind::kBadTimestamp};
  for (const auto kind : kCsvKinds) {
    auto damaged = fault::apply_corruption(csv_data, {kind, cfg.seed});
    if (damaged.ok()) {
      cases.push_back({fault::to_string(kind).data(), std::move(damaged).value()});
    }
  }
  for (const auto& c : cases) {
    for (const auto policy : kPolicies) {
      obs::reset_peak_rss();
      const ReadOutcome out = timed_read(c.data, policy);
      table.add_row({c.label, trace::to_string(policy),
                     fmt(out.wall_ms, 1), out.outcome, std::to_string(out.dropped),
                     std::to_string(out.repaired)});
      // The read path has no attribution stage, so there is no energy total
      // to report; no_joules() keeps a bogus "joules":0 out of the record.
      benchutil::report_perf(std::string{"fault_injection/read/csv-"} + c.label + "-" +
                                 trace::to_string(policy),
                             cfg, out.wall_ms, out.packets, benchutil::no_joules());
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "shape: lenient policies pay ~nothing over strict on clean data; the cost of\n"
               "corruption is bounded by the quarantine, never a crash or a silent ledger.\n\n";

  // View 2: engine failure policies under a scripted shard fault.
  std::cout << "-- sharded engine: clean vs retry vs retry-exhausted-skip --\n";
  struct EngineCase {
    const char* label;
    unsigned fail_attempts;  ///< 0 = no fault injected
  };
  const EngineCase engine_cases[] = {
      {"fault_injection/engine-clean", 0},
      {"fault_injection/engine-retry-once", 1},
      {"fault_injection/engine-skip-user", 1000},
  };
  for (const auto& ec : engine_cases) {
    obs::reset_peak_rss();
    fault::FaultPlan plan;
    if (ec.fail_attempts > 0) {
      plan.add({/*user=*/cfg.num_users / 2, /*nth_callback=*/100,
                /*fail_attempts=*/ec.fail_attempts, /*stall_ms=*/0});
    }
    core::PipelineOptions options;
    options.num_threads = 4;
    options.failure_policy = core::FailurePolicy::kRetryThenSkip;
    options.max_shard_retries = 2;
    options.fault_plan = ec.fail_attempts > 0 ? &plan : nullptr;
    sim::StudyGenerator generator{cfg};
    core::StudyPipeline pipeline{&generator, options};
    const auto result = pipeline.run();
    if (!result.ok()) {
      std::cerr << ec.label << ": run failed: " << result.status().message() << "\n";
      return 1;
    }
    const obs::RunStats& stats = result.value();
    std::cout << ec.label << ": retries=" << stats.shard_retries
              << " skipped_users=" << stats.failed_users.size() << "\n";
    benchutil::report_perf(ec.label, cfg, stats);
  }
  return 0;
}

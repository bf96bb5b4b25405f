// Scenario sweep bench (DESIGN.md §10): simulate once, replay many.
//
// The what-if table of the paper's §5 evaluates K policy variants over the
// SAME canonical trace. This bench measures both ways to get it:
//  1. K independent single-thread StudyPipeline runs — each pays trace
//     generation again for byte-identical events;
//  2. one core::SweepEngine — capture the generator into a resident
//     trace::SpillingTraceStore (no store_dir) once, replay the cached
//     columns K times — at one thread (the apples-to-apples comparison) and
//     at four.
//
// Emits WILDENERGY_BENCH_JSON records (bench_util.h) named
// "sweep_scenarios/..."; the sweep records carry the store footprint and
// the speedup over the K independent runs in extra fields.
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "obs/stopwatch.h"
#include "sim/generator.h"
#include "util/table.h"

#include "bench_util.h"

namespace {

using namespace wildenergy;

struct SpecEntry {
  std::string name;
  core::PolicyFactory policy;  ///< empty = baseline
};

std::vector<SpecEntry> scenario_specs() {
  std::vector<SpecEntry> specs;
  specs.push_back({"baseline", {}});
  for (const double n : {1.0, 2.0, 3.0, 5.0, 7.0, 14.0}) {
    specs.push_back({"kill-" + std::to_string(static_cast<int>(n)) + "d",
                     [n](trace::TraceSink* d) {
                       return std::make_unique<core::KillAfterIdlePolicy>(d, days(n));
                     }});
  }
  specs.push_back(
      {"doze", [](trace::TraceSink* d) { return std::make_unique<core::DozeLikePolicy>(d); }});
  return specs;
}

}  // namespace

int main() {
  const sim::StudyConfig config = benchutil::config_from_env(/*default_days=*/200);
  const auto specs = scenario_specs();
  benchutil::print_header("scenario sweep: K independent runs vs simulate-once replay", config);

  // -- K independent pipelines, each regenerating the study from scratch.
  TextTable independent({"scenario", "wall ms", "energy kJ"});
  double independent_total_ms = 0.0;
  std::uint64_t independent_packets = 0;
  double independent_joules = 0.0;
  obs::reset_peak_rss();
  for (const auto& spec : specs) {
    sim::StudyGenerator generator{config};
    core::StudyPipeline pipeline{&generator};
    if (spec.policy) pipeline.set_policy(spec.policy);
    const obs::Stopwatch watch;
    const auto stats = pipeline.run();
    const double wall_ms = watch.elapsed_ms();
    if (!stats.ok()) {
      std::cerr << "independent run failed: " << stats.status() << "\n";
      return 1;
    }
    independent_total_ms += wall_ms;
    independent_packets += stats->packets;
    independent_joules += stats->joules;
    independent.add_row({spec.name, fmt(wall_ms, 1), fmt(stats->joules / 1e3, 1)});
  }
  independent.add_row({"TOTAL (" + std::to_string(specs.size()) + " runs)",
                       fmt(independent_total_ms, 1), fmt(independent_joules / 1e3, 1)});
  independent.print(std::cout);
  benchutil::report_perf("sweep_scenarios/independent_runs", config, independent_total_ms,
                         independent_packets, independent_joules, /*threads=*/1,
                         /*speedup=*/1.0,
                         "\"scenarios\":" + std::to_string(specs.size()));

  // -- One sweep engine per thread count: capture once, replay K scenarios.
  for (const unsigned threads : {1u, 4u}) {
    obs::reset_peak_rss();
    core::SweepOptions options;
    options.num_threads = threads;
    sim::StudyGenerator generator{config};
    core::SweepEngine sweep{&generator, options};
    for (const auto& spec : specs) {
      core::Scenario scenario;
      scenario.name = spec.name;
      scenario.policy = spec.policy;
      sweep.add_scenario(std::move(scenario));
    }
    const auto stats = sweep.run();
    if (!stats.ok()) {
      std::cerr << "sweep failed: " << stats.status() << "\n";
      return 1;
    }
    const double speedup = stats->wall_ms > 0.0 ? independent_total_ms / stats->wall_ms : 0.0;
    std::cout << "\nsweep (" << threads << " thread" << (threads > 1 ? "s" : "") << "): "
              << fmt(stats->wall_ms, 1) << " ms for " << specs.size() << " scenarios — "
              << fmt(speedup, 2) << "x vs independent runs; store: "
              << sweep.store().event_count() << " events, "
              << fmt(static_cast<double>(sweep.store().memory_use().resident_bytes) / 1e6, 1) << " MB\n";
    benchutil::report_perf("sweep_scenarios/sweep_" + std::to_string(threads) + "thread",
                           config, stats->wall_ms, stats->packets, stats->joules, threads,
                           speedup,
                           "\"scenarios\":" + std::to_string(specs.size()) +
                               ",\"store_bytes\":" + std::to_string(sweep.store().memory_use().resident_bytes) +
                               ",\"store_events\":" + std::to_string(sweep.store().event_count()));
  }
  return 0;
}

// Checkpoint overhead bench (DESIGN.md §13): what periodic sink-state
// snapshots cost the pipeline, and what a kill-and-resume run looks like in
// the perf log.
//
// Four measured shapes per thread count:
//   off     - plain run, no checkpoint directory (the baseline)
//   every4  - snapshot after every 4 completed users (the default cadence)
//   every1  - snapshot after every user (worst-case cadence)
//   resume  - a run killed by an injected hard-stop checkpoint fault, then
//             resumed to completion; only the resumed half is timed, and its
//             JSON record carries "resumed":true so tools/bench_diff never
//             pairs the partial against a full-run baseline (its pairing key
//             gets a " resumed" suffix).
//
// Each measured run emits a WILDENERGY_BENCH_JSON record (bench_util.h)
// named "checkpoint_overhead.<shape>".
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "core/pipeline.h"
#include "fault/plan.h"
#include "sim/generator.h"
#include "util/table.h"

#include "bench_util.h"

namespace {

using namespace wildenergy;

struct Measured {
  double wall_ms = 0.0;
  std::uint64_t packets = 0;
  double joules = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
};

Measured timed_run(const sim::StudyConfig& cfg, unsigned threads,
                   const std::string& checkpoint_dir, std::size_t every_users,
                   bool resume = false, fault::FaultPlan* plan = nullptr) {
  core::PipelineOptions options;
  options.num_threads = threads;
  options.checkpoint_dir = checkpoint_dir;
  options.checkpoint_every_users = every_users;
  options.resume = resume;
  options.fault_plan = plan;
  sim::StudyGenerator generator{cfg};
  core::StudyPipeline pipeline{&generator, options};
  const auto start = std::chrono::steady_clock::now();
  auto stats = pipeline.run();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  if (!stats.ok()) {
    std::cerr << "run failed: " << stats.status().to_string() << "\n";
    std::exit(1);
  }
  return {wall_ms, stats->packets, stats->joules, stats->checkpoints_written,
          stats->checkpoint_bytes};
}

}  // namespace

int main() {
  const sim::StudyConfig cfg = benchutil::config_from_env(/*default_days=*/120);
  benchutil::print_header("checkpoint overhead (DESIGN.md §13)", cfg);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wildenergy_ckpt_bench";

  TextTable table({"shape", "threads", "wall (ms)", "vs off", "checkpoints", "ckpt bytes"});
  for (const unsigned threads : {1u, 4u}) {
    std::filesystem::remove_all(dir);
    obs::reset_peak_rss();
    const Measured off = timed_run(cfg, threads, "", 0);
    benchutil::report_perf("checkpoint_overhead.off", cfg, off.wall_ms, off.packets,
                           off.joules, threads);
    table.add_row({"off", std::to_string(threads), fmt(off.wall_ms, 1), "1.00x", "0", "0"});

    for (const std::size_t every : {std::size_t{4}, std::size_t{1}}) {
      std::filesystem::remove_all(dir);
      obs::reset_peak_rss();
      const Measured on = timed_run(cfg, threads, dir.string(), every);
      const std::string bench = "checkpoint_overhead.every" + std::to_string(every);
      benchutil::report_perf(bench, cfg, on.wall_ms, on.packets, on.joules, threads,
                             off.wall_ms > 0.0 ? off.wall_ms / on.wall_ms : 1.0);
      table.add_row({"every" + std::to_string(every), std::to_string(threads),
                     fmt(on.wall_ms, 1),
                     fmt(off.wall_ms > 0.0 ? on.wall_ms / off.wall_ms : 1.0, 2) + "x",
                     std::to_string(on.checkpoints), std::to_string(on.checkpoint_bytes)});
    }

    // Kill-and-resume: per-user checkpoints, hard-stop at the second write,
    // then resume. Only the resumed half is measured; the record is tagged
    // resumed:true.
    std::filesystem::remove_all(dir);
    {
      fault::FaultPlan plan;
      const auto spec = fault::parse_checkpoint_fault_spec("nth=2,kind=hard-stop");
      plan.add_checkpoint_fault(spec.value());
      try {
        (void)timed_run(cfg, threads, dir.string(), 1, false, &plan);
        std::cerr << "expected the injected hard stop to abort the first run\n";
        return 1;
      } catch (const std::exception&) {
        // the scripted kill
      }
    }
    obs::reset_peak_rss();
    const Measured resumed = timed_run(cfg, threads, dir.string(), 4, /*resume=*/true);
    benchutil::report_perf("checkpoint_overhead.resume", cfg, resumed.wall_ms,
                           resumed.packets, resumed.joules, threads,
                           off.wall_ms > 0.0 ? off.wall_ms / resumed.wall_ms : 1.0,
                           "\"resumed\":true");
    table.add_row({"resume", std::to_string(threads), fmt(resumed.wall_ms, 1),
                   fmt(off.wall_ms > 0.0 ? resumed.wall_ms / off.wall_ms : 1.0, 2) + "x",
                   std::to_string(resumed.checkpoints),
                   std::to_string(resumed.checkpoint_bytes)});
  }
  std::filesystem::remove_all(dir);
  table.print(std::cout);
  return 0;
}

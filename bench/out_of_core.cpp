// Out-of-core trace plane bench (DESIGN.md §14): packets/s and peak RSS of a
// capture-then-attribute run through a SpillingTraceStore at growing
// population sizes, under a store budget far below the full trace footprint.
//
// One measured shape per population N (WILDENERGY_POPULATIONS, default
// "20,10000,100000"): generate a PopulationConfig{num_users=N} study at
// WILDENERGY_DAYS (default 1) straight into a budgeted spilling store
// (WILDENERGY_STORE_BUDGET bytes, default 64 MiB), then run the full
// attribution pipeline off the sealed segments. The interesting number is the
// peak_rss_bytes trajectory: it must stay near-flat while population (and
// spilled_bytes) grows by orders of magnitude.
//
// Each run emits a WILDENERGY_BENCH_JSON record (bench_util.h) named
// "out_of_core.pop<N>" carrying population/store_budget/spilled_bytes/
// segments alongside the standard perf fields.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "obs/memory.h"
#include "sim/generator.h"
#include "sim/population.h"
#include "trace/spilling_store.h"
#include "util/table.h"

#include "bench_util.h"

namespace {

using namespace wildenergy;

std::vector<std::uint32_t> populations_from_env() {
  const char* v = std::getenv("WILDENERGY_POPULATIONS");
  const std::string spec = (v != nullptr && *v != '\0') ? v : "20,10000,100000";
  std::vector<std::uint32_t> populations;
  std::stringstream ss{spec};
  std::string item;
  while (std::getline(ss, item, ',')) {
    const long parsed = std::strtol(item.c_str(), nullptr, 10);
    if (parsed < 1) {
      std::cerr << "WILDENERGY_POPULATIONS='" << spec << "' has a non-positive entry\n";
      std::exit(2);
    }
    populations.push_back(static_cast<std::uint32_t>(parsed));
  }
  return populations;
}

}  // namespace

int main() {
  const auto populations = populations_from_env();
  const long days = benchutil::env_long("WILDENERGY_DAYS", 1);
  const std::uint64_t budget = static_cast<std::uint64_t>(
      benchutil::env_long("WILDENERGY_STORE_BUDGET", 64ll * 1024 * 1024, /*min_value=*/0));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wildenergy_ooc_bench";

  std::cout << "=== out-of-core trace plane (DESIGN.md §14) ===\n"
            << "store budget " << fmt_bytes(static_cast<double>(budget)) << ", " << days
            << " day(s) per population\n\n";

  TextTable table({"population", "capture (ms)", "replay (ms)", "Mpkt/s", "spilled",
                   "segments", "peak resident", "peak RSS"});
  for (const std::uint32_t population : populations) {
    sim::PopulationConfig pop;
    pop.num_users = population;
    pop.num_days = days;
    pop.seed = static_cast<std::uint64_t>(
        benchutil::env_long("WILDENERGY_SEED", 42, /*min_value=*/0));
    const sim::StudyConfig cfg = pop.study();

    std::filesystem::remove_all(dir);
    obs::reset_peak_rss();
    sim::StudyGenerator generator{cfg};
    trace::SpillOptions spill;
    spill.dir = dir.string();
    spill.budget_bytes = budget;
    trace::SpillingTraceStore store{spill};

    const auto capture_start = std::chrono::steady_clock::now();
    if (const util::Status captured = store.capture(generator); !captured.ok()) {
      std::cerr << "capture failed: " << captured.to_string() << "\n";
      return 1;
    }
    const double capture_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - capture_start)
                                  .count();

    core::StudyPipeline pipeline{&store, {}};
    const auto replay_start = std::chrono::steady_clock::now();
    const auto stats = pipeline.run();
    const double replay_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - replay_start)
                                 .count();
    if (!stats.ok()) {
      std::cerr << "replay failed: " << stats.status().to_string() << "\n";
      return 1;
    }

    const double wall_ms = capture_ms + replay_ms;
    const double mpps =
        wall_ms > 0.0 ? static_cast<double>(stats->packets) / wall_ms / 1e3 : 0.0;
    table.add_row({std::to_string(population), fmt(capture_ms, 1), fmt(replay_ms, 1),
                   fmt(mpps, 2), fmt_bytes(static_cast<double>(store.spilled_bytes())),
                   std::to_string(store.num_segments()),
                   fmt_bytes(static_cast<double>(store.max_resident_bytes())),
                   fmt_bytes(static_cast<double>(obs::peak_rss_bytes()))});

    std::ostringstream extra;
    extra << "\"population\":" << population << ",\"store_budget\":" << budget
          << ",\"spilled_bytes\":" << store.spilled_bytes()
          << ",\"segments\":" << store.num_segments()
          << ",\"max_resident_bytes\":" << store.max_resident_bytes();
    benchutil::report_perf("out_of_core.pop" + std::to_string(population), cfg, wall_ms,
                           stats->packets, stats->joules, /*threads=*/1, /*speedup=*/1.0,
                           extra.str());
  }
  std::filesystem::remove_all(dir);
  std::cout << "\n";
  table.print(std::cout);
  return 0;
}

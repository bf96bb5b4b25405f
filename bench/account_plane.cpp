// Bounded-memory analysis plane bench (DESIGN.md §15): packets/s, account
// bytes per user, and peak RSS of a full fold-and-release pipeline run
// (ledger + attributor + persistence/time-since-fg/waste analyses) at
// growing population sizes, under an account budget far below the resident
// detail footprint.
//
// One measured shape per population N (WILDENERGY_POPULATIONS, default
// "20,100000,1000000"): generate a PopulationConfig{num_users=N} study at
// WILDENERGY_DAYS (default 1) straight through the serial pipeline with
// --account-dir semantics (WILDENERGY_ACCOUNT_BUDGET bytes, default
// 128 MiB). Every user folds as its stream completes, so the interesting
// numbers are account_resident_bytes (must sit under the budget at every
// population) and peak_rss_bytes (near-flat while population and
// account_spilled_bytes grow by orders of magnitude). The 1M-user shape is
// the ROADMAP north-star run: it only fits a laptop because nothing detail-
// sized survives a fold.
//
// Each run emits a WILDENERGY_BENCH_JSON record (bench_util.h) named
// "account_plane.pop<N>" carrying population/account_budget/
// account_resident_bytes/account_spilled_bytes/account_files/bytes_per_user
// alongside the standard perf fields (packets/s, peak RSS).
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "analysis/waste.h"
#include "core/pipeline.h"
#include "obs/memory.h"
#include "sim/generator.h"
#include "sim/population.h"
#include "util/table.h"

#include "bench_util.h"

namespace {

using namespace wildenergy;

std::vector<std::uint32_t> populations_from_env() {
  const char* v = std::getenv("WILDENERGY_POPULATIONS");
  const std::string spec = (v != nullptr && *v != '\0') ? v : "20,100000,1000000";
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
      benchutil::env_long("WILDENERGY_ACCOUNT_BUDGET", 128ll * 1024 * 1024, /*min_value=*/0));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wildenergy_account_bench";

  std::cout << "=== bounded-memory analysis plane (DESIGN.md §15) ===\n"
            << "account budget " << fmt_bytes(static_cast<double>(budget)) << ", " << days
            << " day(s) per population, serial engine\n\n";

  TextTable table({"population", "wall (ms)", "Mpkt/s", "acct B/user", "acct spilled",
                   "files", "acct resident", "peak RSS"});
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
    core::PipelineOptions options;
    options.account_dir = dir.string();
    options.account_budget_bytes = budget;
    core::StudyPipeline pipeline{&generator, options};
    analysis::PersistenceAnalysis persistence;
    analysis::TimeSinceForegroundAnalysis tsf;
    analysis::WastedUpdateAnalysis waste{{0, 1, 2, 3, 4}};
    pipeline.add_analysis("persistence", &persistence);
    pipeline.add_analysis("time-since-fg", &tsf);
    pipeline.add_analysis("waste", &waste);

    const auto start = std::chrono::steady_clock::now();
    const auto stats = pipeline.run();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (!stats.ok()) {
      std::cerr << "run failed: " << stats.status().to_string() << "\n";
      return 1;
    }

    const auto* spill = pipeline.ledger().account_spill();
    const std::uint64_t spilled = spill->spilled_bytes();
    const std::uint64_t files = spill->sealed_files();
    const std::uint64_t resident = stats->memory.accounts.resident_bytes;
    const double bytes_per_user =
        population > 0 ? static_cast<double>(spilled) / population : 0.0;
    const double mpps =
        wall_ms > 0.0 ? static_cast<double>(stats->packets) / wall_ms / 1e3 : 0.0;
    table.add_row({std::to_string(population), fmt(wall_ms, 1), fmt(mpps, 2),
                   fmt(bytes_per_user, 1), fmt_bytes(static_cast<double>(spilled)),
                   std::to_string(files), fmt_bytes(static_cast<double>(resident)),
                   fmt_bytes(static_cast<double>(obs::peak_rss_bytes()))});

    std::ostringstream extra;
    extra << "\"population\":" << population << ",\"account_budget\":" << budget
          << ",\"account_resident_bytes\":" << resident
          << ",\"account_spilled_bytes\":" << spilled << ",\"account_files\":" << files
          << ",\"bytes_per_user\":" << bytes_per_user;
    benchutil::report_perf("account_plane.pop" + std::to_string(population), cfg, wall_ms,
                           stats->packets, stats->joules, /*threads=*/1, /*speedup=*/1.0,
                           extra.str());
  }
  std::filesystem::remove_all(dir);
  std::cout << "\n";
  table.print(std::cout);
  return 0;
}

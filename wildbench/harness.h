// The wildenergy benchmark harness: workload definitions, output digests and
// output checks shared by the untraced runs (workloads.cpp) and the traced
// layer-by-layer rebuild (traced.cpp). run.py drives one process per
// measured repetition, so every number here describes a single run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/longitudinal.h"
#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "analysis/waste.h"
#include "appmodel/catalog.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "obs/json.h"
#include "sim/study_config.h"
#include "util/status.h"

namespace wildbench {

namespace we = wildenergy;

/// The three named workloads (README.md gives the reasons for each).
enum class Workload { kPanelCkpt, kFleetFold, kCsvSweep };

[[nodiscard]] bool parse_workload(std::string_view name, Workload& out);
[[nodiscard]] const char* workload_name(Workload w);

/// One workload at one seed: sizes, engine settings and the run's directory.
struct Spec {
  Workload workload = Workload::kPanelCkpt;
  std::uint64_t seed = 1;
  std::uint32_t users = 0;
  std::int64_t days = 0;
  unsigned threads = 1;
  /// Every file the run reads or writes lives under this directory.
  std::filesystem::path dir;

  /// The study the workload simulates (panel_ckpt, fleet_fold) or writes as
  /// CSV input (csv_sweep).
  [[nodiscard]] we::sim::StudyConfig study() const;
  /// The CSV input of csv_sweep, written by `prepare`.
  [[nodiscard]] std::filesystem::path csv_path() const { return dir / "trace.csv"; }
};

/// The workload's fixed sizes and settings; `users`/`days`/`threads` of 0
/// keep the defaults.
[[nodiscard]] Spec default_spec(Workload w, std::uint64_t seed, std::filesystem::path dir,
                                std::uint32_t users = 0, std::int64_t days = 0,
                                unsigned threads = 0);

// Workload settings.
inline constexpr std::size_t kCheckpointEveryUsers = 4;       // panel_ckpt
inline constexpr std::uint64_t kAccountBudgetBytes = 256 << 10;  // fleet_fold
inline constexpr std::uint64_t kStoreBudgetBytes = 8 << 20;      // csv_sweep
/// Set-up builds per measured run; the run reports their median.
inline constexpr unsigned kSetupRepeats = 9;

/// 64-bit FNV-1a over the exact bits of everything fed to it.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t len);
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Tracked apps of the waste and longitudinal analyses: the apps the paper
/// reports as evolving (bench/longitudinal_trends.cpp uses the same list).
[[nodiscard]] std::vector<we::trace::AppId> tracked_apps(const we::appmodel::AppCatalog& catalog);

/// The analysis sinks a workload registers, in registration order.
struct Analyses {
  explicit Analyses(Workload w, const std::vector<we::trace::AppId>& tracked);

  we::analysis::PersistenceAnalysis persistence;
  we::analysis::TimeSinceForegroundAnalysis time_since_fg;
  we::analysis::WastedUpdateAnalysis waste;
  /// panel_ckpt only.
  std::unique_ptr<we::analysis::LongitudinalAnalysis> longitudinal;

  [[nodiscard]] std::vector<std::pair<std::string, we::trace::TraceSink*>> sinks();
};

/// The csv_sweep scenarios: baseline, kill-1d/3d/7d, doze, and baseline on
/// the fast-dormancy radio model. No analyses; each scenario keeps a ledger.
[[nodiscard]] std::vector<we::core::Scenario> sweep_scenarios();

/// Outcome of one output check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Ledger detail rows (through AccountCursor, so resident and folded ledgers
/// digest alike) plus its totals. A cursor error fails `checks`.
void digest_ledger(const we::energy::EnergyLedger& ledger, Digest& d, std::vector<Check>& checks);
/// Every analysis output plus the attributor's energy split.
void digest_outputs(Analyses& analyses, const we::energy::EnergyAttributor& attributor,
                    const std::vector<we::trace::AppId>& tracked, Digest& d);

/// Per-app ledger rows sum to the ledger totals (read back through
/// AccountCursor); for a folded ledger this is the read-back-equals-folded-
/// aggregates check. Returns the cursor pass time in ms.
double check_ledger_rows(const we::energy::EnergyLedger& ledger, std::vector<Check>& checks);
/// attributed + baseline == device joules (to 1e-9 relative).
void check_energy_split(const we::energy::EnergyAttributor& attributor,
                        std::vector<Check>& checks);

/// CPU seconds (user + system, all threads) this process used so far.
[[nodiscard]] double process_cpu_s();
/// Bytes this process passed to write(2) so far (/proc/self/io wchar).
[[nodiscard]] std::uint64_t process_written_bytes();
/// Peak resident set of this process (/proc/self/status VmHWM), in bytes.
[[nodiscard]] std::uint64_t process_peak_rss_bytes();

/// Common header of every JSON line the harness prints.
void write_provenance(const Spec& spec, we::obs::JsonWriter& w);
void write_checks(const std::vector<Check>& checks, we::obs::JsonWriter& w);

// Modes (one JSON object on stdout each; exit code 0 unless the harness
// itself could not run).
int run_prepare(const Spec& spec);
int run_measure(const Spec& spec);
int run_reference(const Spec& spec);
int run_traced(const Spec& spec, const std::filesystem::path& spans_out);

}  // namespace wildbench

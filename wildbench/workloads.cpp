// Workload definitions, digests, checks, and the untraced modes (prepare,
// measure, reference). Each measured run calls the same top-level API a user
// calls — core::StudyPipeline::run or core::SweepEngine::run — with tracing
// off.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/policy.h"
#include "energy/account_cursor.h"
#include "harness.h"
#include "obs/memory.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "sim/population.h"
#include "trace/batch.h"
#include "trace/csv_io.h"

#ifndef WILDBENCH_BUILD_TYPE
#define WILDBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define WILDBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define WILDBENCH_COMPILER "gcc " __VERSION__
#else
#define WILDBENCH_COMPILER "unknown"
#endif

namespace wildbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

bool close_rel(double a, double b, double rel = 1e-9) {
  return std::fabs(a - b) <= rel * std::max({std::fabs(a), std::fabs(b), 1e-300});
}

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Hashes the event stream it receives: the input digest that tells two
/// seeds' inputs apart.
class EventDigestSink final : public we::trace::TraceSink {
 public:
  void on_study_begin(const we::trace::StudyMeta& meta) override {
    d_.add(std::uint64_t{meta.num_users});
    d_.add(std::uint64_t{meta.num_apps});
  }
  void on_user_begin(we::trace::UserId user) override { d_.add(std::uint64_t{user}); }
  void on_packet(const we::trace::PacketRecord& p) override {
    d_.add(static_cast<std::uint64_t>(p.time.us));
    d_.add((std::uint64_t{p.user} << 32) | p.app);
    d_.add(p.flow);
    d_.add(p.bytes);
    d_.add((static_cast<std::uint64_t>(p.direction) << 16) |
           (static_cast<std::uint64_t>(p.interface) << 8) | static_cast<std::uint64_t>(p.state));
    ++events_;
  }
  void on_transition(const we::trace::StateTransition& t) override {
    d_.add(static_cast<std::uint64_t>(t.time.us));
    d_.add((std::uint64_t{t.user} << 32) | t.app);
    d_.add((static_cast<std::uint64_t>(t.from) << 8) | static_cast<std::uint64_t>(t.to));
    ++events_;
  }

  [[nodiscard]] const Digest& digest() const { return d_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  Digest d_;
  std::uint64_t events_ = 0;
};

/// Runs `build(dir)` kSetupRepeats times, each for a fresh output directory
/// under `out_root`, timing each construction; returns the last build's
/// objects. The engines create their output directories themselves, during
/// run().
template <class Build>
auto timed_setup(const fs::path& out_root, Build build, std::vector<double>& samples) {
  fs::remove_all(out_root);
  for (unsigned i = 1;; ++i) {
    const fs::path dir = out_root / std::to_string(i);
    const auto start = Clock::now();
    auto built = build(dir);
    samples.push_back(seconds_since(start));
    if (i >= kSetupRepeats) return built;
  }
}

/// A fixed xorshift-fill-and-sort workload that shares no code with the
/// program under test. Its duration tracks how fast this host runs right now:
/// other tenants of a shared host slow everything down, for seconds or
/// minutes at a time. Median of three rounds.
double host_probe_s() {
  std::vector<std::uint64_t> keys(std::size_t{1} << 20);
  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    const auto start = Clock::now();
    for (std::uint64_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
    std::sort(keys.begin(), keys.end());
    rounds.push_back(seconds_since(start));
  }
  return median(rounds);
}

/// What one untraced run measured, printed as the measure/reference line.
struct RunRecord {
  double host_probe_s = 0.0;  ///< mean of host_probe_s() before and after
  std::vector<double> setup_samples;
  double run_s = 0.0;
  std::uint64_t packets = 0;
  double cpu_s = 0.0;
  std::uint64_t written_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t tracked_bytes = 0;
  std::string digest;
  std::string baseline_digest;
  std::vector<Check> checks;
};

void print_record(const Spec& spec, const char* mode, const RunRecord& r) {
  we::obs::JsonWriter w;
  w.begin_object();
  w.kv("mode", mode);
  write_provenance(spec, w);
  w.kv("host_probe_s", r.host_probe_s);
  w.kv("setup_s", median(r.setup_samples));
  w.key("setup_samples");
  w.begin_array();
  for (const double s : r.setup_samples) w.value(s);
  w.end_array();
  w.kv("run_s", r.run_s);
  w.kv("packets", r.packets);
  w.kv("cpu_s", r.cpu_s);
  w.kv("written_bytes", r.written_bytes);
  w.kv("peak_rss_bytes", r.peak_rss_bytes);
  w.kv("tracked_bytes", r.tracked_bytes);
  w.kv("digest", std::string_view{r.digest});
  w.kv("baseline_digest", std::string_view{r.baseline_digest});
  write_checks(r.checks, w);
  w.end_object();
  std::cout << w.str() << "\n";
}

/// Runs `body` (the timed run() call) between CPU / write / clock samples.
template <class Body>
void measure_run(RunRecord& r, Body body) {
  const double cpu0 = process_cpu_s();
  const std::uint64_t written0 = process_written_bytes();
  const auto start = Clock::now();
  try {
    body();
  } catch (const std::exception& e) {
    r.checks.push_back({"run", false, std::string("run() threw: ") + e.what()});
  }
  r.run_s = seconds_since(start);
  r.cpu_s = process_cpu_s() - cpu0;
  r.written_bytes = process_written_bytes() - written0;
  r.peak_rss_bytes = process_peak_rss_bytes();
}

void check_stats(const we::util::StatusOr<we::obs::RunStats>& stats, RunRecord& r) {
  if (!stats.ok()) {
    r.checks.push_back({"run", false, "run() returned " + stats.status().to_string()});
    return;
  }
  r.checks.push_back({"run", true, ""});
  r.checks.push_back({"no_failed_users", stats->failed_users.empty(),
                      std::to_string(stats->failed_users.size()) + " failed user(s)"});
}

/// panel_ckpt and fleet_fold: StudyPipeline over the generator.
RunRecord measure_pipeline(const Spec& spec) {
  const bool fleet = spec.workload == Workload::kFleetFold;
  struct Setup {
    std::unique_ptr<we::sim::StudyGenerator> generator;
    std::vector<we::trace::AppId> tracked;
    std::unique_ptr<Analyses> analyses;
    std::unique_ptr<we::core::StudyPipeline> pipeline;
  };
  RunRecord r;
  Setup s = timed_setup(spec.dir / "out", [&](const fs::path& out_dir) {
    Setup b;
    b.generator = std::make_unique<we::sim::StudyGenerator>(spec.study());
    b.tracked = tracked_apps(b.generator->catalog());
    b.analyses = std::make_unique<Analyses>(spec.workload, b.tracked);
    we::core::PipelineOptions options;
    options.num_threads = spec.threads;
    if (fleet) {
      options.account_dir = (out_dir / "accounts").string();
      options.account_budget_bytes = kAccountBudgetBytes;
    } else {
      options.checkpoint_dir = (out_dir / "ckpt").string();
      options.checkpoint_every_users = kCheckpointEveryUsers;
    }
    b.pipeline = std::make_unique<we::core::StudyPipeline>(b.generator.get(), options);
    for (const auto& [name, sink] : b.analyses->sinks()) b.pipeline->add_analysis(name, sink);
    return b;
  }, r.setup_samples);

  we::util::StatusOr<we::obs::RunStats> stats = we::util::Status::internal("run did not start");
  measure_run(r, [&] { stats = s.pipeline->run(); });
  check_stats(stats, r);
  if (!stats.ok()) return r;
  r.packets = stats->packets;
  r.tracked_bytes = stats->memory.tracked_bytes();
  if (!fleet) {
    const std::uint64_t expected = (spec.users + kCheckpointEveryUsers - 1) / kCheckpointEveryUsers;
    r.checks.push_back({"checkpoints_written",
                        stats->checkpoints_written == expected &&
                            stats->checkpoint_write_failures == 0,
                        std::to_string(stats->checkpoints_written) + " written, " +
                            std::to_string(stats->checkpoint_write_failures) + " failed, " +
                            std::to_string(expected) + " expected"});
  }
  check_ledger_rows(s.pipeline->ledger(), r.checks);
  check_energy_split(s.pipeline->attributor(), r.checks);
  Digest d;
  digest_ledger(s.pipeline->ledger(), d, r.checks);
  digest_outputs(*s.analyses, s.pipeline->attributor(), s.tracked, d);
  r.digest = d.hex();
  return r;
}

/// csv_sweep: SweepEngine capturing the CSV into a budgeted spilling store.
RunRecord measure_sweep(const Spec& spec) {
  struct Setup {
    std::unique_ptr<std::ifstream> file;
    std::unique_ptr<we::trace::CsvTraceSource> csv;
    std::unique_ptr<we::core::SweepEngine> sweep;
  };
  RunRecord r;
  Setup s = timed_setup(spec.dir / "out", [&](const fs::path& out_dir) {
    Setup b;
    b.file = std::make_unique<std::ifstream>(spec.csv_path(), std::ios::binary);
    b.csv = std::make_unique<we::trace::CsvTraceSource>(*b.file);
    we::core::SweepOptions options;
    options.num_threads = spec.threads;
    options.store_dir = (out_dir / "segments").string();
    options.store_budget_bytes = kStoreBudgetBytes;
    b.sweep = std::make_unique<we::core::SweepEngine>(b.csv.get(), options);
    for (auto& scenario : sweep_scenarios()) b.sweep->add_scenario(std::move(scenario));
    return b;
  }, r.setup_samples);
  if (!*s.file) {
    r.checks.push_back({"input", false, "cannot open " + spec.csv_path().string()});
    return r;
  }

  we::util::StatusOr<we::obs::RunStats> stats = we::util::Status::internal("run did not start");
  measure_run(r, [&] { stats = s.sweep->run(); });
  check_stats(stats, r);
  if (!stats.ok()) return r;
  const we::trace::ReadSummary& read = s.csv->summary();
  r.checks.push_back({"csv_records_dropped", read.status.ok() && read.records_dropped == 0,
                      std::to_string(read.records_dropped) + " dropped"});
  r.tracked_bytes = stats->memory.tracked_bytes();
  Digest all;
  for (const we::core::ScenarioResult& res : s.sweep->results()) {
    r.checks.push_back({"scenario_" + res.name,
                        res.status.ok() && res.stats.failed_users.empty(),
                        res.status.to_string()});
    Digest one;
    digest_ledger(res.ledger, one, r.checks);
    all.add(std::string_view{res.name});
    all.add(one.value());
    if (res.name == "baseline") {
      r.baseline_digest = one.hex();
      // Work per run is the input's packets replayed once per scenario.
      r.packets = res.stats.packets * s.sweep->num_scenarios();
    }
  }
  r.digest = all.hex();
  return r;
}

}  // namespace

// --- workloads ---------------------------------------------------------------

bool parse_workload(std::string_view name, Workload& out) {
  for (const Workload w : {Workload::kPanelCkpt, Workload::kFleetFold, Workload::kCsvSweep}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPanelCkpt:
      return "panel_ckpt";
    case Workload::kFleetFold:
      return "fleet_fold";
    case Workload::kCsvSweep:
      return "csv_sweep";
  }
  return "?";
}

we::sim::StudyConfig Spec::study() const {
  if (workload == Workload::kFleetFold) {
    we::sim::PopulationConfig pop;
    pop.num_users = users;
    pop.num_days = days;
    pop.seed = seed;
    return pop.study();
  }
  we::sim::StudyConfig cfg;  // the paper's panel: 342 apps
  cfg.seed = seed;
  cfg.num_users = users;
  cfg.num_days = days;
  return cfg;
}

Spec default_spec(Workload w, std::uint64_t seed, fs::path dir, std::uint32_t users,
                  std::int64_t days, unsigned threads) {
  Spec spec;
  spec.workload = w;
  spec.seed = seed;
  spec.dir = std::move(dir);
  switch (w) {
    case Workload::kPanelCkpt:
      spec.users = 20;
      spec.days = 120;
      spec.threads = 1;
      break;
    case Workload::kFleetFold:
      // 2,500 rather than 10,000 users: the 4-thread peak grows with the
      // square of the user count (every per-user chain, built up front, sizes
      // its dense per-user arrays for the whole population) — ~1.8 GB here,
      // ~6.7 GB at 5,000, and beyond a shared host's memory at 10,000.
      spec.users = 2500;
      spec.days = 1;
      spec.threads = 4;
      break;
    case Workload::kCsvSweep:
      spec.users = 20;
      spec.days = 60;
      spec.threads = 4;
      break;
  }
  if (users != 0) spec.users = users;
  if (days != 0) spec.days = days;
  if (threads != 0) spec.threads = threads;
  return spec;
}

std::vector<we::trace::AppId> tracked_apps(const we::appmodel::AppCatalog& catalog) {
  std::vector<we::trace::AppId> ids;
  for (const char* name :
       {"Facebook", "Pandora", "Go Weather", "Maps", "GMail", "Spotify", "Weibo", "Twitter"}) {
    ids.push_back(catalog.find(name));
  }
  return ids;
}

Analyses::Analyses(Workload w, const std::vector<we::trace::AppId>& tracked)
    : waste(tracked) {
  if (w == Workload::kPanelCkpt) {
    longitudinal = std::make_unique<we::analysis::LongitudinalAnalysis>(tracked);
  }
}

std::vector<std::pair<std::string, we::trace::TraceSink*>> Analyses::sinks() {
  std::vector<std::pair<std::string, we::trace::TraceSink*>> out{
      {"persistence", &persistence}, {"time_since_fg", &time_since_fg}, {"waste", &waste}};
  if (longitudinal) out.emplace_back("longitudinal", longitudinal.get());
  return out;
}

std::vector<we::core::Scenario> sweep_scenarios() {
  std::vector<we::core::Scenario> out;
  we::core::Scenario baseline;
  baseline.name = "baseline";
  out.push_back(std::move(baseline));
  for (const int idle_days : {1, 3, 7}) {
    we::core::Scenario s;
    s.name = "kill-" + std::to_string(idle_days) + "d";
    s.policy = [idle_days](we::trace::TraceSink* downstream) {
      return std::make_unique<we::core::KillAfterIdlePolicy>(
          downstream, we::days(static_cast<double>(idle_days)));
    };
    out.push_back(std::move(s));
  }
  we::core::Scenario doze;
  doze.name = "doze";
  doze.policy = [](we::trace::TraceSink* downstream) {
    return std::make_unique<we::core::DozeLikePolicy>(downstream);
  };
  out.push_back(std::move(doze));
  we::core::Scenario fd;
  fd.name = "baseline-fd";
  fd.radio_factory = we::radio::make_lte_fast_dormancy_model;
  out.push_back(std::move(fd));
  return out;
}

// --- digests and checks ------------------------------------------------------

void Digest::add_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void digest_ledger(const we::energy::EnergyLedger& ledger, Digest& d, std::vector<Check>& checks) {
  we::energy::AccountCursor cursor{ledger};
  while (const we::energy::AppUserAccount* a = cursor.next()) {
    d.add((std::uint64_t{a->user} << 32) | a->app);
    d.add(a->bytes);
    d.add(a->packets);
    d.add(a->joules);
    for (const double j : a->state_joules) d.add(j);
    d.add(static_cast<std::uint64_t>(a->days.size()));
    for (const we::energy::DayCell& c : a->days) {
      d.add(c.fg_joules);
      d.add(c.bg_joules);
      d.add(c.fg_bytes);
      d.add(c.bg_bytes);
    }
  }
  if (!cursor.status().ok()) {
    checks.push_back({"ledger_cursor", false, cursor.status().to_string()});
  }
  d.add(ledger.total_joules());
  d.add(ledger.total_bytes());
  d.add(ledger.total_packets());
}

void digest_outputs(Analyses& analyses, const we::energy::EnergyAttributor& attributor,
                    const std::vector<we::trace::AppId>& tracked, Digest& d) {
  for (const we::trace::AppId app : analyses.persistence.tracked_apps()) {
    d.add(std::uint64_t{app});
    const auto samples = analyses.persistence.durations(app).samples();
    d.add(static_cast<std::uint64_t>(samples.size()));
    for (const double s : samples) d.add(s);
  }
  for (const double m : analyses.time_since_fg.bytes_histogram().masses()) d.add(m);
  for (const auto& [app, tally] : analyses.time_since_fg.app_tallies()) {
    d.add(std::uint64_t{app});
    d.add(tally.bg_bytes);
    d.add(tally.bg_bytes_first_minute);
  }
  for (const we::trace::AppId app : tracked) {
    const we::analysis::WasteResult w = analyses.waste.result(app);
    d.add(w.updates);
    d.add(w.wasted_updates);
    d.add(w.joules);
    d.add(w.wasted_joules);
  }
  if (analyses.longitudinal) {
    const we::analysis::WeeklySeries& weekly = analyses.longitudinal->overall();
    for (const double j : weekly.fg_joules) d.add(j);
    for (const double j : weekly.bg_joules) d.add(j);
    for (const we::trace::AppId app : tracked) {
      const we::analysis::EraComparison era = analyses.longitudinal->era_comparison(app);
      d.add(era.early_joules_per_day);
      d.add(era.late_joules_per_day);
      d.add(era.early_uj_per_byte);
      d.add(era.late_uj_per_byte);
    }
  }
  d.add(attributor.device_joules());
  d.add(attributor.attributed_joules());
  d.add(attributor.baseline_joules());
  d.add(attributor.tail_joules());
  d.add(attributor.promotion_joules());
  d.add(attributor.transfer_joules());
  const we::energy::AttributionCounters& c = attributor.counters();
  for (const std::uint64_t v : {c.packets, c.transitions, c.users, c.tail_attributions,
                                c.promotion_segments, c.transfer_segments, c.tail_segments,
                                c.drx_segments, c.idle_segments}) {
    d.add(v);
  }
}

double check_ledger_rows(const we::energy::EnergyLedger& ledger, std::vector<Check>& checks) {
  const auto start = Clock::now();
  we::energy::AccountCursor cursor{ledger};
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  double joules = 0.0;
  while (const we::energy::AppUserAccount* a = cursor.next()) {
    ++rows;
    bytes += a->bytes;
    packets += a->packets;
    joules += a->joules;
  }
  const double ms = seconds_since(start) * 1e3;
  std::ostringstream detail;
  detail << rows << " rows (" << ledger.total_accounts() << " accounts), bytes " << bytes << "/"
         << ledger.total_bytes() << ", packets " << packets << "/" << ledger.total_packets()
         << ", joules " << fmt_g(joules) << "/" << fmt_g(ledger.total_joules());
  const bool ok = cursor.status().ok() && rows == ledger.total_accounts() &&
                  bytes == ledger.total_bytes() && packets == ledger.total_packets() &&
                  close_rel(joules, ledger.total_joules());
  checks.push_back({"ledger_rows_sum_to_totals", ok,
                    cursor.status().ok() ? detail.str() : cursor.status().to_string()});
  return ms;
}

void check_energy_split(const we::energy::EnergyAttributor& attributor,
                        std::vector<Check>& checks) {
  const double split = attributor.attributed_joules() + attributor.baseline_joules();
  checks.push_back({"attributed_plus_baseline_is_device",
                    close_rel(split, attributor.device_joules()),
                    fmt_g(split) + " vs " + fmt_g(attributor.device_joules())});
}

// --- process measurements ----------------------------------------------------

double process_cpu_s() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {
/// The first number after `key` in a /proc/self file, or `fallback`.
std::uint64_t proc_field(const char* path, std::string_view key, std::uint64_t fallback) {
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    std::istringstream fields{line.substr(key.size())};
    std::uint64_t v = 0;
    if (fields >> v) return v;
  }
  return fallback;
}
}  // namespace

std::uint64_t process_written_bytes() { return proc_field("/proc/self/io", "wchar:", 0); }

std::uint64_t process_peak_rss_bytes() {
  const std::uint64_t kib = proc_field("/proc/self/status", "VmHWM:", 0);
  return kib != 0 ? kib * 1024 : we::obs::peak_rss_bytes();
}

// --- output ------------------------------------------------------------------

void write_provenance(const Spec& spec, we::obs::JsonWriter& w) {
  w.kv("workload", workload_name(spec.workload));
  w.kv("seed", spec.seed);
  w.kv("users", std::uint64_t{spec.users});
  w.kv("days", static_cast<std::int64_t>(spec.days));
  w.kv("threads", spec.threads);
  w.kv("build_type", WILDBENCH_BUILD_TYPE);
  w.kv("compiler", WILDBENCH_COMPILER);
}

void write_checks(const std::vector<Check>& checks, we::obs::JsonWriter& w) {
  bool ok = !checks.empty();
  w.key("checks");
  w.begin_array();
  for (const Check& c : checks) {
    ok = ok && c.ok;
    w.begin_object();
    w.kv("name", std::string_view{c.name});
    w.kv("ok", c.ok);
    w.kv("detail", std::string_view{c.detail});
    w.end_object();
  }
  w.end_array();
  w.kv("ok", ok);
}

// --- modes -------------------------------------------------------------------

int run_prepare(const Spec& spec) {
  fs::create_directories(spec.dir);
  we::sim::StudyGenerator generator{spec.study()};
  EventDigestSink digest;
  std::uint64_t csv_bytes = 0;
  if (spec.workload == Workload::kCsvSweep) {
    // The imported trace: the whole study as CSV. Input generation, untimed.
    std::ofstream out{spec.csv_path(), std::ios::binary};
    we::trace::CsvTraceWriter writer{out};
    we::trace::TraceMulticast both;
    both.add(&writer);
    both.add(&digest);
    generator.run(both, we::trace::kDefaultBatchSize);
    out.close();
    if (!out) {
      std::cerr << "cannot write " << spec.csv_path() << "\n";
      return 1;
    }
    // Flush the CSV now, so that its write-back does not overlap the
    // measured runs.
    if (const int fd = ::open(spec.csv_path().c_str(), O_RDONLY); fd >= 0) {
      (void)::fsync(fd);
      ::close(fd);
    }
    csv_bytes = fs::file_size(spec.csv_path());
  } else {
    // Generated inputs are a pure function of the study config; user 0's
    // stream stands for them in the input digest.
    (void)generator.emit_user(0, digest, we::trace::kDefaultBatchSize);
  }
  we::obs::JsonWriter w;
  w.begin_object();
  w.kv("mode", "prepare");
  write_provenance(spec, w);
  w.kv("input_digest", std::string_view{digest.digest().hex()});
  w.kv("input_events", digest.events());
  w.kv("csv_bytes", csv_bytes);
  w.end_object();
  std::cout << w.str() << "\n";
  return 0;
}

int run_measure(const Spec& spec) {
  fs::create_directories(spec.dir);
  const double probe_before = host_probe_s();
  RunRecord r =
      spec.workload == Workload::kCsvSweep ? measure_sweep(spec) : measure_pipeline(spec);
  r.host_probe_s = 0.5 * (probe_before + host_probe_s());
  // Deleting the run's outputs discards their unwritten pages, so no
  // write-back of this run spills into the next repetition.
  fs::remove_all(spec.dir / "out");
  print_record(spec, "measure", r);
  return 0;
}

int run_reference(const Spec& spec) {
  // The plain-pipeline reference of csv_sweep: one serial StudyPipeline over
  // the same CSV, whose ledger the sweep's baseline scenario must reproduce.
  if (spec.workload != Workload::kCsvSweep) {
    std::cerr << "reference mode applies to csv_sweep only\n";
    return 2;
  }
  RunRecord r;
  std::ifstream file{spec.csv_path(), std::ios::binary};
  if (!file) {
    std::cerr << "cannot open " << spec.csv_path() << "\n";
    return 1;
  }
  we::trace::CsvTraceSource csv{file};
  we::core::StudyPipeline pipeline{&csv};
  we::util::StatusOr<we::obs::RunStats> stats = we::util::Status::internal("run did not start");
  measure_run(r, [&] { stats = pipeline.run(); });
  check_stats(stats, r);
  if (stats.ok()) {
    r.packets = stats->packets;
    r.checks.push_back({"csv_records_dropped", csv.summary().records_dropped == 0,
                        std::to_string(csv.summary().records_dropped) + " dropped"});
    Digest d;
    digest_ledger(pipeline.ledger(), d, r.checks);
    r.baseline_digest = d.hex();
  }
  print_record(spec, "reference", r);
  return 0;
}

}  // namespace wildbench

// wildenergy CLI: one binary covering the library's main workflows.
//
//   example_wildenergy_cli generate [--days N] [--users N] [--seed S] > trace.csv
//       Synthesize a study and stream the energy-annotated CSV trace to stdout.
//
//   example_wildenergy_cli analyze [--replay FILE]
//                                  [--read-policy strict|skip-and-count|best-effort]
//                                  [--corrupt KIND [--corrupt-seed N]] < trace.csv
//   example_wildenergy_cli analyze --store-dir DIR
//       Re-attribute an external trace (LTE model) and print the report card.
//       Like every command it analyzes cellular packets only (paper §3):
//       WiFi-tagged packets are dropped before attribution. --replay reads
//       FILE instead of stdin; --read-policy picks how hard the reader fails
//       on damage (the reader checks both record syntax and the stream
//       protocol); --corrupt injects one deterministic corruption
//       (fault/injector.h) before parsing, for demos and tests. --store-dir
//       reads the sealed WESG segments a `run`/`sweep --store-dir` left
//       behind instead; their decoder checks the same protocol, always
//       strictly (the files are checksummed, so --read-policy does not apply).
//
//   example_wildenergy_cli report [--days N] [--users N] [--seed S]
//       Simulate and print the report card directly (no intermediate file).
//
//   example_wildenergy_cli figures [--days N] [--users N] [--seed S]
//       Print the headline numbers of every paper figure in one run.
//
//   example_wildenergy_cli run [--days N] [--users N] [--seed S]
//       Run the pipeline and print the one-line run summary — the smallest
//       harness for the observability flags below (DESIGN.md §11).
//
//   example_wildenergy_cli sweep [--days N] [--users N] [--seed S]
//                                [--replay FILE [--read-policy POLICY]]
//                                [--threads N] [--progress]
//       Simulate once — or with --replay read the CSV trace FILE once — and
//       replay a fixed what-if scenario set (baseline, kill-after-idle
//       1/3/7 days, doze) over the cached trace, printing one row per
//       scenario. --progress reports completed (scenario x user) shards to
//       stderr as the sweep runs.
//
// Observability (generate/analyze/report/figures/run/sweep): --stats prints
// the per-stage wall-time + throughput breakdown after the run (under
// --threads N the per-shard profiles are merged; see DESIGN.md §11);
// --stats-json FILE writes the structured run report
// (schema wildenergy.run_stats.v2) for dashboards and regression tooling;
// --trace-out FILE writes Chrome trace-event spans loadable at
// https://ui.perfetto.dev.
//
// Execution: --threads N shards the study by user across a worker pool
// (core/pipeline.h); every number printed is bit-identical to --threads 1.
//
// Resilience (generate/report/figures): --inject-fault user=U,nth=N[,attempts=A]
// scripts a shard failure (repeatable); --failure-policy retry-then-skip with
// --max-shard-retries N retries failed shards and skips their users instead
// of aborting the run.
//
// Checkpoint/resume (run/sweep/analyze): --checkpoint-dir DIR snapshots the
// sink state every --checkpoint-every completed users (src/ckpt/, DESIGN.md
// §13); --resume continues from the newest good checkpoint, bit-identical to
// an uninterrupted run; --inject-ckpt-fault nth=N,kind=hard-stop|short-write|
// io-error scripts checkpoint-write failures for kill-and-recover testing.
//
// Out-of-core (run/sweep/analyze; DESIGN.md §14): --population N swaps the
// fixed study for a parameterized fleet (deterministic per user id — user k's
// stream is identical at any population size); --store-dir DIR captures
// through a SpillingTraceStore that seals WESG segments on disk instead of
// holding every column in RAM; --store-budget BYTES caps the resident
// columns (0 = fully out-of-core). `analyze --store-dir DIR` re-attributes a
// previously sealed directory; `run`/`sweep --resume` with --store-dir reuse
// sealed segments instead of regenerating them.
//
// Exit codes: 0 success; 1 runtime/data failure (unreadable or corrupt input,
// run aborted by a fault, unwritable output, missing/corrupt/stale checkpoint
// on --resume); 2 usage error (bad command or flag value, --resume without
// --checkpoint-dir or --store-dir, a flag on a command it does not apply to
// such as --progress outside sweep).
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diversity.h"
#include "analysis/figures.h"
#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/report.h"
#include "core/sweep.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/trace_writer.h"
#include "sim/generator.h"
#include "sim/population.h"
#include "power/battery.h"
#include "trace/csv_io.h"
#include "trace/read_policy.h"
#include "trace/spilling_store.h"
#include "util/table.h"

namespace {

using namespace wildenergy;

struct CliOptions {
  sim::StudyConfig study;
  /// The engine knobs the flags set directly (--threads, --batch-size,
  /// --failure-policy, --max-shard-retries, --checkpoint-dir/-every,
  /// --resume, --account-dir/-budget); run_options() adds the rest.
  core::RunOptions run;
  bool stats = false;
  std::string stats_json;  ///< --stats-json FILE: structured run report
  bool progress = false;   ///< --progress: per-shard sweep progress on stderr
  std::string trace_out;
  // Ingestion robustness (analyze).
  std::string replay;  ///< file to read instead of stdin
  trace::ReadPolicy read_policy = trace::ReadPolicy::kStrict;
  std::optional<fault::CorruptionKind> corrupt_kind;
  std::uint64_t corrupt_seed = 0;
  // Execution resilience (generate/report/figures).
  std::vector<fault::ShardFaultSpec> faults;
  std::vector<fault::CheckpointFaultSpec> ckpt_faults;  ///< kill-and-recover harness
  // Out-of-core trace plane (run/sweep/analyze; DESIGN.md §14).
  std::string store_dir;           ///< spill sealed WESG segments here
  std::uint64_t store_budget = 0;  ///< resident column budget; 0 = fully out-of-core
};

/// Strict base-10 parse: the whole string must be a number (no "12abc" -> 12,
/// no "foo" -> 0 as with atol) and it must satisfy min_value.
bool parse_int_flag(std::string_view flag, const char* value, long long min_value,
                    long long& out) {
  if (value == nullptr || *value == '\0') {
    std::cerr << flag << " requires a value\n";
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0' || parsed < min_value) {
    std::cerr << flag << " expects an integer >= " << min_value << ", got '" << value << "'\n";
    return false;
  }
  out = parsed;
  return true;
}

bool parse_flags(int argc, char** argv, int start, CliOptions& options) {
  // --population lowers a sim::PopulationConfig onto the study at the end of
  // parsing; these track which of its defaults an explicit flag overrides.
  bool users_set = false;
  bool days_set = false;
  bool store_budget_set = false;
  bool account_budget_set = false;
  long long population = 0;
  for (int i = start; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    long long value = 0;
    if (flag == "--days") {
      if (!parse_int_flag(flag, next(), 1, value)) return false;
      options.study.num_days = value;
      days_set = true;
    } else if (flag == "--users") {
      if (!parse_int_flag(flag, next(), 1, value)) return false;
      options.study.num_users = static_cast<std::uint32_t>(value);
      users_set = true;
    } else if (flag == "--population") {
      if (!parse_int_flag(flag, next(), 1, value)) return false;
      population = value;
    } else if (flag == "--store-dir") {
      const char* v = next();
      if (!v || *v == '\0') {
        std::cerr << "--store-dir requires a directory path\n";
        return false;
      }
      options.store_dir = v;
    } else if (flag == "--store-budget") {
      if (!parse_int_flag(flag, next(), 0, value)) return false;
      options.store_budget = static_cast<std::uint64_t>(value);
      store_budget_set = true;
    } else if (flag == "--account-dir") {
      const char* v = next();
      if (!v || *v == '\0') {
        std::cerr << "--account-dir requires a directory path\n";
        return false;
      }
      options.run.account_dir = v;
    } else if (flag == "--account-budget") {
      if (!parse_int_flag(flag, next(), 0, value)) return false;
      options.run.account_budget_bytes = static_cast<std::uint64_t>(value);
      account_budget_set = true;
    } else if (flag == "--seed") {
      if (!parse_int_flag(flag, next(), 0, value)) return false;
      options.study.seed = static_cast<std::uint64_t>(value);
    } else if (flag == "--threads") {
      if (!parse_int_flag(flag, next(), 1, value)) return false;
      options.run.num_threads = static_cast<unsigned>(value);
    } else if (flag == "--batch-size") {
      if (!parse_int_flag(flag, next(), 1, value)) return false;
      options.run.batch_size = static_cast<std::size_t>(value);
    } else if (flag == "--replay") {
      const char* v = next();
      if (!v || *v == '\0') {
        std::cerr << "--replay requires a file path\n";
        return false;
      }
      options.replay = v;
    } else if (flag == "--read-policy") {
      const char* v = next();
      const std::string_view name = v != nullptr ? v : "";
      if (name == "strict") {
        options.read_policy = trace::ReadPolicy::kStrict;
      } else if (name == "skip-and-count") {
        options.read_policy = trace::ReadPolicy::kSkipAndCount;
      } else if (name == "best-effort") {
        options.read_policy = trace::ReadPolicy::kBestEffort;
      } else {
        std::cerr << "--read-policy expects strict|skip-and-count|best-effort, got '" << name
                  << "'\n";
        return false;
      }
    } else if (flag == "--corrupt") {
      const char* v = next();
      const auto kind = fault::parse_corruption_kind(v != nullptr ? v : "");
      if (!kind.ok()) {
        std::cerr << "--corrupt: " << kind.status().message() << "\n";
        return false;
      }
      options.corrupt_kind = kind.value();
    } else if (flag == "--corrupt-seed") {
      if (!parse_int_flag(flag, next(), 0, value)) return false;
      options.corrupt_seed = static_cast<std::uint64_t>(value);
    } else if (flag == "--inject-fault") {
      const char* v = next();
      const auto spec = fault::parse_shard_fault_spec(v != nullptr ? v : "");
      if (!spec.ok()) {
        std::cerr << "--inject-fault: " << spec.status().message() << "\n";
        return false;
      }
      options.faults.push_back(spec.value());
    } else if (flag == "--failure-policy") {
      const char* v = next();
      const std::string_view name = v != nullptr ? v : "";
      if (name == "failfast") {
        options.run.failure_policy = core::FailurePolicy::kFailFast;
      } else if (name == "retry-then-skip") {
        options.run.failure_policy = core::FailurePolicy::kRetryThenSkip;
      } else {
        std::cerr << "--failure-policy expects failfast|retry-then-skip, got '" << name << "'\n";
        return false;
      }
    } else if (flag == "--max-shard-retries") {
      if (!parse_int_flag(flag, next(), 0, value)) return false;
      options.run.max_shard_retries = static_cast<unsigned>(value);
    } else if (flag == "--checkpoint-dir") {
      const char* v = next();
      if (!v || *v == '\0') {
        std::cerr << "--checkpoint-dir requires a directory path\n";
        return false;
      }
      options.run.checkpoint_dir = v;
    } else if (flag == "--checkpoint-every") {
      if (!parse_int_flag(flag, next(), 1, value)) return false;
      options.run.checkpoint_every_users = static_cast<std::size_t>(value);
    } else if (flag == "--resume") {
      options.run.resume = true;
    } else if (flag == "--inject-ckpt-fault") {
      const char* v = next();
      const auto spec = fault::parse_checkpoint_fault_spec(v != nullptr ? v : "");
      if (!spec.ok()) {
        std::cerr << "--inject-ckpt-fault: " << spec.status().message() << "\n";
        return false;
      }
      options.ckpt_faults.push_back(spec.value());
    } else if (flag == "--stats") {
      options.stats = true;
    } else if (flag == "--stats-json") {
      const char* v = next();
      if (!v || *v == '\0') {
        std::cerr << "--stats-json requires a file path\n";
        return false;
      }
      options.stats_json = v;
    } else if (flag == "--progress") {
      options.progress = true;
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (!v || *v == '\0') {
        std::cerr << "--trace-out requires a file path\n";
        return false;
      }
      options.trace_out = v;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  // Usage errors (exit 2), distinct from a missing/corrupt checkpoint at
  // runtime (exit 1): the flag combination itself is wrong.
  if (options.run.resume && options.run.checkpoint_dir.empty() && options.store_dir.empty()) {
    std::cerr << "--resume requires --checkpoint-dir or --store-dir\n";
    return false;
  }
  if (!options.ckpt_faults.empty() && options.run.checkpoint_dir.empty()) {
    std::cerr << "--inject-ckpt-fault requires --checkpoint-dir\n";
    return false;
  }
  if (store_budget_set && options.store_dir.empty()) {
    std::cerr << "--store-budget requires --store-dir\n";
    return false;
  }
  if (account_budget_set && options.run.account_dir.empty()) {
    std::cerr << "--account-budget requires --account-dir\n";
    return false;
  }
  if (population > 0) {
    if (users_set) {
      std::cerr << "--population and --users are mutually exclusive\n";
      return false;
    }
    sim::PopulationConfig pc;
    pc.num_users = static_cast<std::uint32_t>(population);
    pc.seed = options.study.seed;  // honors an explicit --seed (default 42 either way)
    if (days_set) pc.num_days = options.study.num_days;
    options.study = pc.study();
  }
  return true;
}

/// The engine knobs of a run or sweep: the flags' RunOptions plus the
/// requested observability and scripted faults, bound to `writer` and `plan`
/// (both must outlive the run).
core::RunOptions run_options(const CliOptions& options, obs::TraceWriter& writer,
                             fault::FaultPlan& plan) {
  core::RunOptions run = options.run;
  // The JSON report carries the per-stage profile too, so either flag turns
  // stage collection on.
  run.collect_stage_stats = options.stats || !options.stats_json.empty();
  if (!options.trace_out.empty()) run.trace_writer = &writer;
  for (const auto& spec : options.faults) plan.add(spec);
  for (const auto& spec : options.ckpt_faults) plan.add_checkpoint_fault(spec);
  if (!options.faults.empty() || !options.ckpt_faults.empty()) run.fault_plan = &plan;
  return run;
}

/// Pipeline options: run_options() with the pipeline's default attribution.
core::PipelineOptions observed_options(const CliOptions& options, obs::TraceWriter& writer,
                                       fault::FaultPlan& plan) {
  core::PipelineOptions pipeline_options{run_options(options, writer, plan)};
  // --resume without --checkpoint-dir is about a --store-dir's sealed
  // segments, not the pipeline (parse_flags allows nothing else).
  if (options.run.checkpoint_dir.empty()) pipeline_options.resume = false;
  return pipeline_options;
}

/// run() with failures surfaced as an exit-code-1 diagnostic instead of an
/// unhandled exception (an injected fault under --failure-policy failfast
/// propagates out of run() by design). Returns the run's stats on success.
std::optional<obs::RunStats> run_guarded(core::StudyPipeline& pipeline) {
  util::StatusOr<obs::RunStats> stats = util::Status::internal("run did not start");
  try {
    stats = pipeline.run();
  } catch (const std::exception& e) {
    std::cerr << "run failed: " << e.what() << "\n";
    return std::nullopt;
  }
  if (!stats.ok()) {
    std::cerr << "run failed: " << stats.status().to_string() << "\n";
    return std::nullopt;
  }
  if (!stats->failed_users.empty()) {
    std::cerr << "warning: skipped " << stats->failed_users.size() << " user(s) after "
              << stats->shard_retries << " shard retr" << (stats->shard_retries == 1 ? "y" : "ies")
              << "; results cover the surviving users only (--stats for details)\n";
  }
  return std::move(stats).value();
}

/// Resume/checkpoint facts on stderr after a successful run — recovery is
/// never silent (DESIGN.md §13). Shared by every command that checkpoints.
void print_checkpoint_notes(const CliOptions& options, const obs::RunStats& stats) {
  if (options.run.checkpoint_dir.empty()) return;
  if (options.run.resume) {
    std::cerr << "resumed: skipped " << stats.resumed_users << " already-completed user(s)";
    if (stats.recovered_from_seq != 0) {
      std::cerr << " (recovered from checkpoint seq " << stats.recovered_from_seq
                << " past a damaged newer one)";
    }
    std::cerr << "\n";
  }
  std::cerr << "checkpoints: " << stats.checkpoints_written << " written";
  if (stats.checkpoint_write_failures > 0) {
    std::cerr << ", " << stats.checkpoint_write_failures << " write failure(s)";
  }
  std::cerr << "\n";
}

/// After run(): print --stats to `os`, write --stats-json, write --trace-out.
/// Returns false (and complains) only if an output file cannot be written.
bool finish_observability(const CliOptions& options, const obs::RunStats& stats,
                          const obs::TraceWriter& writer, std::ostream& os) {
  if (options.stats) {
    os << "\n";
    stats.print(os);
  }
  if (!options.stats_json.empty()) {
    std::ofstream json{options.stats_json};
    if (!json) {
      std::cerr << "cannot write stats to " << options.stats_json << "\n";
      return false;
    }
    json << stats.to_json() << "\n";
    std::cerr << "wrote run stats (wildenergy.run_stats.v2) to " << options.stats_json << "\n";
  }
  if (!options.trace_out.empty()) {
    if (!writer.write_file(options.trace_out)) {
      std::cerr << "cannot write trace to " << options.trace_out << "\n";
      return false;
    }
    std::cerr << "wrote " << writer.span_count() << " spans to " << options.trace_out
              << " (open at https://ui.perfetto.dev)\n";
  }
  return true;
}

int cmd_generate(const CliOptions& options) {
  obs::TraceWriter spans;
  fault::FaultPlan plan;
  sim::StudyGenerator generator{options.study};
  core::StudyPipeline pipeline{&generator, observed_options(options, spans, plan)};
  trace::CsvTraceWriter writer{std::cout};
  pipeline.add_analysis("csv-out", &writer);
  const auto stats = run_guarded(pipeline);
  if (!stats) return 1;
  std::cerr << "generated " << options.study.num_users << " users x "
            << options.study.num_days << " days; "
            << fmt(pipeline.ledger().total_joules() / 1e3, 1) << " kJ attributed\n";
  // stdout carries the trace stream, so stats go to stderr here.
  return finish_observability(options, *stats, spans, std::cerr) ? 0 : 1;
}

/// First few quarantined records, one line each, to stderr.
void print_quarantine(const std::vector<trace::QuarantinedRecord>& quarantine) {
  for (const auto& q : quarantine) {
    std::cerr << "  quarantined [" << q.location << "] " << q.reason;
    if (!q.snippet.empty()) std::cerr << ": " << q.snippet;
    std::cerr << "\n";
  }
}

/// What a CSV read quarantined and, when degraded, dropped — to stderr.
void print_read_summary(const trace::CsvTraceSource& csv) {
  const trace::ReadSummary& summary = csv.summary();
  print_quarantine(summary.quarantine);
  if (!summary.degraded()) return;
  std::cerr << "degraded read: " << summary.records_dropped << " record(s) dropped, "
            << summary.records_repaired << " repaired"
            << (summary.truncated ? ", stream truncated before the E record" : "") << "\n";
}

/// The CSV input of `analyze` and `sweep`: stdin, or --replay FILE, damaged first when
/// --corrupt asks. Returns nullptr (after complaining) when it cannot.
std::istream* open_csv_input(const CliOptions& options, std::ifstream& file,
                             std::istringstream& corrupted) {
  if (!options.replay.empty()) {
    file.open(options.replay, std::ios::binary);
    if (!file) {
      std::cerr << "cannot read --replay file '" << options.replay
                << "': " << std::strerror(errno) << "\n";
      return nullptr;
    }
  }
  std::istream& raw = options.replay.empty() ? std::cin : file;
  if (!options.corrupt_kind) return &raw;
  // --corrupt: buffer the whole input and damage it deterministically first.
  std::ostringstream buffer;
  buffer << raw.rdbuf();
  auto damaged = fault::apply_corruption(std::move(buffer).str(),
                                         {*options.corrupt_kind, options.corrupt_seed});
  if (!damaged.ok()) {
    std::cerr << "cannot corrupt input: " << damaged.status().message() << "\n";
    return nullptr;
  }
  std::cerr << "injected " << fault::to_string(*options.corrupt_kind) << " (seed "
            << options.corrupt_seed << ") before parsing\n";
  corrupted.str(std::move(damaged).value());
  return &corrupted;
}

/// analyze: one StudyPipeline run over a source that checks the stream
/// protocol itself (DESIGN.md §8) — the CSV reader, or with --store-dir a
/// sealed spill directory (the WESG segments a previous `run`/`sweep
/// --store-dir` left behind, replayed off the mapped files). Checkpoint,
/// resume, --threads and their faults run through the engine like every
/// other command.
int cmd_analyze(const CliOptions& options) {
  std::optional<trace::SpillingTraceStore> store;
  std::ifstream file;
  std::istringstream corrupted;
  std::optional<trace::CsvTraceSource> csv;
  if (!options.store_dir.empty()) {
    if (!options.replay.empty() || options.corrupt_kind) {
      std::cerr << "analyze --store-dir cannot be combined with --replay or --corrupt\n";
      return 2;
    }
    store.emplace(trace::SpillOptions{.dir = options.store_dir});
    if (const util::Status opened = store->open_existing(); !opened.ok()) {
      std::cerr << "cannot open --store-dir '" << options.store_dir
                << "': " << opened.to_string() << "\n";
      return 1;
    }
    if (store->empty()) {
      std::cerr << "store at '" << options.store_dir << "' holds no sealed users\n";
      return 1;
    }
  } else {
    std::istream* input = open_csv_input(options, file, corrupted);
    if (input == nullptr) return 1;
    trace::ReadOptions read_options;
    read_options.policy = options.read_policy;
    csv.emplace(*input, read_options);
  }

  trace::TraceSource& source = store ? static_cast<trace::TraceSource&>(*store) : *csv;
  obs::TraceWriter spans;
  fault::FaultPlan plan;
  core::StudyPipeline pipeline{&source, observed_options(options, spans, plan)};
  analysis::PersistenceAnalysis persistence;
  pipeline.add_analysis("persistence", &persistence);
  const auto stats = run_guarded(pipeline);
  if (csv) print_read_summary(*csv);
  if (!stats) return 1;
  print_checkpoint_notes(options, *stats);
  if (store) {
    std::cerr << "replayed " << store->num_users() << " sealed user(s), "
              << store->num_segments() << " segment(s), "
              << fmt(static_cast<double>(store->spilled_bytes()) / 1e6, 1) << " MB\n";
  }

  // App names are unknown for external traces; use the default catalog's
  // names where ids overlap, "appN" otherwise.
  const auto catalog = appmodel::AppCatalog::full_catalog(options.study.seed);
  core::Report::build(pipeline.ledger(), catalog, &persistence).print(std::cout);
  return finish_observability(options, *stats, spans, std::cout) ? 0 : 1;
}

int cmd_report(const CliOptions& options) {
  obs::TraceWriter spans;
  fault::FaultPlan plan;
  sim::StudyGenerator generator{options.study};
  core::StudyPipeline pipeline{&generator, observed_options(options, spans, plan)};
  analysis::PersistenceAnalysis persistence;
  pipeline.add_analysis("persistence", &persistence);
  const auto stats = run_guarded(pipeline);
  if (!stats) return 1;
  print_checkpoint_notes(options, *stats);
  const auto report =
      core::Report::build(pipeline.ledger(), generator.catalog(), &persistence);
  report.print(std::cout);

  const double days_observed = static_cast<double>(options.study.num_days);
  const double per_user_day = pipeline.ledger().total_joules() /
                              static_cast<double>(options.study.num_users) / days_observed;
  std::cout << "\nbattery impact: network energy costs the average user "
            << fmt(power::battery_percent(per_user_day), 1)
            << "% of a Galaxy S III battery per day\n";
  return finish_observability(options, *stats, spans, std::cout) ? 0 : 1;
}

int cmd_figures(const CliOptions& options) {
  obs::TraceWriter spans;
  fault::FaultPlan plan;
  sim::StudyGenerator generator{options.study};
  core::StudyPipeline pipeline{&generator, observed_options(options, spans, plan)};
  analysis::PersistenceAnalysis persistence;
  analysis::TimeSinceForegroundAnalysis tsf;
  pipeline.add_analysis("persistence", &persistence);
  pipeline.add_analysis("time-since-fg", &tsf);
  const auto stats = run_guarded(pipeline);
  if (!stats) return 1;
  print_checkpoint_notes(options, *stats);
  const auto& ledger = pipeline.ledger();

  const auto overall = analysis::overall_state_breakdown(ledger);
  const auto diversity = analysis::top_n_diversity(ledger);
  const auto top_energy = analysis::top_consumers_by_energy(ledger, 3);
  const trace::AppId chrome = generator.catalog().find("Chrome");

  std::cout << "paper headline checks (" << options.study.num_users << " users, "
            << options.study.num_days << " days, seed " << options.study.seed << "):\n"
            << "  [Fig 1] universal top-10 apps: " << diversity.universal_apps
            << ", single-user favourites: " << diversity.single_user_apps << "\n"
            << "  [Fig 2] top energy app: " << generator.catalog().name(top_energy[0].app)
            << " (" << fmt(top_energy[0].joules / 1e3, 1) << " kJ)\n"
            << "  [Fig 3] background energy share: "
            << fmt(100 * overall.background_fraction(), 1) << "%  (paper: 84%)\n"
            << "  [Fig 5] Chrome transitions with >1 h persisting traffic: "
            << fmt(100 * persistence.fraction_persisting_longer_than(chrome, hours(1.0)), 2)
            << "%\n"
            << "  [Fig 6] apps frontloading >=80% of bg bytes into 60 s: "
            << fmt(100 * tsf.fraction_of_apps_frontloaded(), 1) << "%  (paper: 84%)\n";
  return finish_observability(options, *stats, spans, std::cout) ? 0 : 1;
}

/// The smallest observability harness: run the pipeline, print the one-line
/// run summary, then let --stats / --stats-json / --trace-out do their thing.
/// With --store-dir the study is captured into a SpillingTraceStore first
/// (bounded resident columns, sealed WESG segments) and the pipeline replays
/// the store — outputs bit-identical to the direct run.
int cmd_run(const CliOptions& options) {
  obs::TraceWriter spans;
  fault::FaultPlan plan;
  sim::StudyGenerator generator{options.study};
  std::optional<trace::SpillingTraceStore> store;
  trace::TraceSource* source = &generator;
  if (!options.store_dir.empty()) {
    store.emplace(trace::SpillOptions{.dir = options.store_dir,
                                      .budget_bytes = options.store_budget,
                                      .resume = options.run.resume});
    if (const util::Status captured =
            store->capture(generator, options.run.batch_size, options.run.num_threads);
        !captured.ok()) {
      std::cerr << "capture failed: " << captured.to_string() << "\n";
      return 1;
    }
    if (options.run.resume) {
      std::cerr << "resumed: reused " << store->resumed_users() << " sealed user(s) from "
                << options.store_dir << "\n";
    }
    source = &*store;
  }
  core::StudyPipeline pipeline{source, observed_options(options, spans, plan)};
  const auto stats = run_guarded(pipeline);
  if (!stats) return 1;
  print_checkpoint_notes(options, *stats);
  std::cout << "run: " << stats->users << " users, " << stats->packets << " packets, "
            << fmt(stats->joules / 1e3, 1) << " kJ in " << fmt(stats->wall_ms, 1) << " ms ("
            << stats->num_threads << " thread" << (stats->num_threads > 1 ? "s" : "") << ")\n";
  if (store) {
    std::cout << "store: " << store->event_count() << " events; "
              << fmt(static_cast<double>(store->spilled_bytes()) / 1e6, 1) << " MB in "
              << store->num_segments() << " segment(s) on disk, peak resident "
              << fmt(static_cast<double>(store->max_resident_bytes()) / 1e6, 1) << " MB (budget "
              << fmt(static_cast<double>(options.store_budget) / 1e6, 1) << " MB)\n";
  }
  return finish_observability(options, *stats, spans, std::cout) ? 0 : 1;
}

/// Simulate once — or read the --replay CSV once — and replay the fixed
/// what-if scenario set over the cached trace (core/sweep.h). One row per
/// scenario; --progress streams completed (scenario x user) shard counts to
/// stderr while the sweep runs.
int cmd_sweep(const CliOptions& options) {
  std::optional<sim::StudyGenerator> generator;
  std::ifstream file;
  std::istringstream corrupted;
  std::optional<trace::CsvTraceSource> csv;
  if (options.replay.empty()) {
    generator.emplace(options.study);
  } else {
    std::istream* input = open_csv_input(options, file, corrupted);
    if (input == nullptr) return 1;
    trace::ReadOptions read_options;
    read_options.policy = options.read_policy;
    csv.emplace(*input, read_options);
  }
  trace::TraceSource& source =
      csv ? static_cast<trace::TraceSource&>(*csv) : static_cast<trace::TraceSource&>(*generator);

  obs::TraceWriter spans;
  fault::FaultPlan plan;
  core::SweepOptions sweep_options{run_options(options, spans, plan)};
  sweep_options.store_dir = options.store_dir;
  sweep_options.store_budget_bytes = options.store_budget;
  if (options.progress) {
    sweep_options.progress = [](const core::SweepProgress& p) {
      std::cerr << "\r[sweep] " << p.completed << "/" << p.total << " shards (scenario "
                << p.scenario_index << ", user " << p.user << ")   ";
      if (p.completed == p.total) std::cerr << "\n";
    };
  }

  core::SweepEngine sweep{&source, sweep_options};
  sweep.add_scenario({.name = "baseline"});
  for (const double idle_days : {1.0, 3.0, 7.0}) {
    core::Scenario scenario;
    scenario.name = "kill-" + std::to_string(static_cast<int>(idle_days)) + "d";
    scenario.policy = [idle_days](trace::TraceSink* downstream) {
      return std::make_unique<core::KillAfterIdlePolicy>(downstream, days(idle_days));
    };
    sweep.add_scenario(std::move(scenario));
  }
  sweep.add_scenario({.name = "doze", .policy = [](trace::TraceSink* downstream) {
                        return std::make_unique<core::DozeLikePolicy>(downstream);
                      }});

  util::StatusOr<obs::RunStats> stats = util::Status::internal("sweep did not start");
  try {
    stats = sweep.run();
  } catch (const std::exception& e) {
    std::cerr << "sweep failed: " << e.what() << "\n";
    return 1;
  }
  if (csv) print_read_summary(*csv);
  if (!stats.ok()) {
    std::cerr << "sweep failed: " << stats.status().to_string() << "\n";
    return 1;
  }
  print_checkpoint_notes(options, *stats);

  TextTable table({"scenario", "energy kJ", "vs baseline", "packets"});
  const core::ScenarioResult* baseline = sweep.result("baseline");
  const double base_joules = baseline != nullptr ? baseline->ledger.total_joules() : 0.0;
  for (const auto& result : sweep.results()) {
    const double joules = result.ledger.total_joules();
    const std::string delta =
        base_joules > 0.0 ? fmt(100.0 * (joules - base_joules) / base_joules, 1) + "%" : "-";
    table.add_row({result.name, fmt(joules / 1e3, 1), delta,
                   std::to_string(result.stats.packets)});
  }
  table.print(std::cout);
  std::cout << "store: " << sweep.store().event_count() << " events, "
            << fmt(static_cast<double>(sweep.store().memory_use().resident_bytes) / 1e6, 1) << " MB cached";
  if (sweep.store().spilled_bytes() > 0) {
    std::cout << ", " << fmt(static_cast<double>(sweep.store().spilled_bytes()) / 1e6, 1)
              << " MB in " << sweep.store().num_segments() << " segment(s) on disk";
  }
  std::cout << "; " << sweep.num_scenarios() << " scenarios in " << fmt(stats->wall_ms, 1)
            << " ms\n";

  // --stats / --stats-json report the sweep-wide aggregate RunStats (its
  // stages fold every scenario's chains; per-scenario stats live on the
  // ScenarioResult for library users); --trace-out holds one span per
  // (scenario x user) shard.
  return finish_observability(options, *stats, spans, std::cout) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0] << " generate|analyze|report|figures|run|sweep [flags]\n"
              << "flags: --days N --users N --seed S\n"
              << "       --threads N (shard the study by user; results identical to serial)\n"
              << "       --batch-size N (events per batch on the sink path, N >= 1; "
                 "results identical for every N)\n"
              << "       --stats (per-stage profile)  --stats-json FILE (structured run "
                 "report, schema wildenergy.run_stats.v2)\n"
              << "       --trace-out FILE (Perfetto spans; under sweep one per scenario x "
                 "user shard)\n"
              << "sweep only: --progress (per-shard progress on stderr)\n"
              << "analyze: --replay FILE (read FILE instead of stdin; under sweep, the "
                 "CSV trace to sweep instead of a simulated study)\n"
              << "         --read-policy strict|skip-and-count|best-effort\n"
              << "         --corrupt bit-flip|truncate|duplicate-span|swap-spans|bad-enum|"
                 "bad-timestamp --corrupt-seed N\n"
              << "resilience: --inject-fault user=U,nth=N[,attempts=A][,stall_ms=S] "
                 "(repeatable)\n"
              << "            --failure-policy failfast|retry-then-skip  "
                 "--max-shard-retries N\n"
              << "checkpoint/resume (run/sweep/analyze): --checkpoint-dir DIR "
                 "--checkpoint-every N\n"
              << "            --resume (continue from the newest good checkpoint; "
                 "bit-identical to an uninterrupted run)\n"
              << "            --inject-ckpt-fault nth=N,kind=hard-stop|short-write|io-error"
                 "[,truncate_to=B] (kill-and-recover harness)\n"
              << "out-of-core (run/sweep/analyze): --population N (parameterized fleet; "
                 "excludes --users)\n"
              << "            --store-dir DIR (capture via sealed on-disk segments; analyze "
                 "replays a sealed dir)\n"
              << "            --store-budget BYTES (resident column cap; 0 = fully "
                 "out-of-core)  --resume (reuse sealed segments)\n"
              << "account plane (run/sweep): --account-dir DIR (write the folded per-user "
                 "detail rows as WEAC account files here; default <checkpoint-dir>/accounts, "
                 "else memory)\n"
              << "            --account-budget BYTES (unsealed account-row cap; needs "
                 "--account-dir)\n"
              << "exit codes: 0 ok; 1 runtime/data failure (incl. missing/corrupt/stale "
                 "checkpoint on --resume); 2 usage error (incl. --resume without "
                 "--checkpoint-dir or --store-dir)\n";
    return 2;
  }
  CliOptions options;
  options.study = sim::small_study();
  if (!parse_flags(argc, argv, 2, options)) return 2;

  const std::string_view cmd = argv[1];
  if (!options.store_dir.empty() && cmd != "run" && cmd != "sweep" && cmd != "analyze") {
    std::cerr << "--store-dir applies to run|sweep|analyze only\n";
    return 2;
  }
  if (!options.run.account_dir.empty() && cmd != "run" && cmd != "sweep") {
    std::cerr << "--account-dir applies to run|sweep only\n";
    return 2;
  }
  if (options.progress && cmd != "sweep") {
    std::cerr << "--progress applies to sweep only\n";
    return 2;
  }
  if (cmd == "generate") return cmd_generate(options);
  if (cmd == "analyze") return cmd_analyze(options);
  if (cmd == "report") return cmd_report(options);
  if (cmd == "figures") return cmd_figures(options);
  if (cmd == "run") return cmd_run(options);
  if (cmd == "sweep") return cmd_sweep(options);
  std::cerr << "unknown command: " << cmd << "\n";
  return 2;
}

// Account plane (DESIGN.md §15): every run folds each user through an
// AccountSpill — files under a directory, or in memory — and must be
// indistinguishable, everywhere except memory, however far folds got.
//
//   - AccountCursor conformance: the cursor yields a byte-identical account
//     sequence over an account-directory run and an in-memory run, at
//     multiple populations and thread counts, and cursor-based consumers
//     (what-if, top-consumer figures, persistence CDFs) agree exactly. A
//     missing account file or directory is a data_loss naming the file,
//     never fewer rows.
//   - Corruption matrix: every fault/injector.h damage kind applied to a
//     sealed WEAC account file yields a positioned util::Status naming the
//     file — never a silent wrong detail row.
//   - Kill-and-recover: a run with an account directory killed by an
//     injected checkpoint fault and resumed is bit-identical to an
//     uninterrupted one at every thread count; a version-1 snapshot is
//     refused.
//   - Golden guardrail: one digest over ledger rows, attributor splits and
//     every analysis result, recorded before the two lifecycles became one,
//     reproduced by every lifecycle at threads {1, 2, 8} and by a CSV whose
//     users arrive in descending id order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "ledger_compare.h"
#include "analysis/case_studies.h"
#include "analysis/figures.h"
#include "analysis/longitudinal.h"
#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "analysis/waste.h"
#include "analysis/whatif.h"
#include "ckpt/checkpoint.h"
#include "ckpt/codec.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "energy/account_cursor.h"
#include "energy/account_file.h"
#include "energy/ledger.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "sim/generator.h"
#include "sim/study_config.h"
#include "trace/csv_io.h"
#include "util/status.h"
#include "util/time.h"

namespace wildenergy {
namespace {

namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("wildenergy_account_plane_" + name);
  fs::remove_all(dir);
  return dir;
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------ cursor conformance

TEST(AccountCursor, SpilledSequenceBitIdenticalToResidentAcrossPopulations) {
  for (const std::uint32_t population : {5u, 50u}) {
    SCOPED_TRACE("population=" + std::to_string(population));
    sim::StudyConfig cfg = sim::small_study(/*seed=*/31);
    cfg.num_users = population;
    cfg.num_days = 20;

    // Reference: no account directory, so the account images stay in memory.
    sim::StudyGenerator resident_gen{cfg};
    core::StudyPipeline resident{&resident_gen};
    analysis::PersistenceAnalysis resident_persist;
    resident.add_analysis("persistence", &resident_persist);
    ASSERT_TRUE(resident.run().ok());
    const auto reference = cursor_accounts(resident.ledger());
    ASSERT_EQ(reference.size(), resident.ledger().total_accounts());

    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const fs::path dir =
          scratch_dir("conform_p" + std::to_string(population) + "_t" + std::to_string(threads));
      core::PipelineOptions options;
      options.num_threads = threads;
      options.account_dir = dir.string();
      options.account_budget_bytes = 32 * 1024;  // small: forces several sealed files
      sim::StudyGenerator spilled_gen{cfg};
      core::StudyPipeline spilled{&spilled_gen, options};
      analysis::PersistenceAnalysis spilled_persist;
      spilled.add_analysis("persistence", &spilled_persist);
      const auto stats = spilled.run();
      ASSERT_TRUE(stats.ok()) << stats.status().to_string();

      // The fold actually released the slabs and spilled real bytes.
      EXPECT_EQ(spilled.ledger().num_accounts(), 0u);
      EXPECT_EQ(spilled.ledger().total_accounts(), reference.size());
      ASSERT_NE(spilled.ledger().account_spill(), nullptr);
      EXPECT_GT(spilled.ledger().account_spill()->spilled_bytes(), 0u);
      EXPECT_GE(spilled.ledger().account_spill()->sealed_files(), population >= 50 ? 2u : 1u);
      EXPECT_GT(stats->memory.accounts.spilled_bytes, 0u);

      // The cursor replays the exact in-memory sequence...
      expect_identical_rows(reference, cursor_accounts(spilled.ledger()));

      // ...aggregates agree to the bit...
      EXPECT_EQ(resident.ledger().total_joules(), spilled.ledger().total_joules());
      EXPECT_EQ(resident.ledger().total_bytes(), spilled.ledger().total_bytes());
      EXPECT_EQ(resident.ledger().total_packets(), spilled.ledger().total_packets());

      // ...and so do cursor-based consumers and fold-opted analyses.
      for (const int idle_days : {1, 3, 7}) {
        util::Status whatif_status;
        const auto resident_overall =
            analysis::whatif_overall(resident.ledger(), idle_days);
        const auto spilled_overall =
            analysis::whatif_overall(spilled.ledger(), idle_days, &whatif_status);
        ASSERT_TRUE(whatif_status.ok()) << whatif_status.to_string();
        EXPECT_EQ(resident_overall.pct_saved(), spilled_overall.pct_saved());
      }
      const auto resident_top = analysis::top_consumers_by_energy(resident.ledger(), 8);
      const auto spilled_top = analysis::top_consumers_by_energy(spilled.ledger(), 8);
      ASSERT_EQ(resident_top.size(), spilled_top.size());
      for (std::size_t i = 0; i < resident_top.size(); ++i) {
        EXPECT_EQ(resident_top[i].app, spilled_top[i].app);
        EXPECT_EQ(resident_top[i].joules, spilled_top[i].joules);
        EXPECT_EQ(resident_top[i].bytes, spilled_top[i].bytes);
      }
      for (const trace::AppId app : resident_persist.tracked_apps()) {
        const auto ra = resident_persist.durations(app).sorted_samples();
        const auto sa = spilled_persist.durations(app).sorted_samples();
        ASSERT_TRUE(spilled_persist.hydrate_status().ok())
            << spilled_persist.hydrate_status().to_string();
        ASSERT_EQ(ra.size(), sa.size());
        for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], sa[i]);
      }
      fs::remove_all(dir);
    }
  }
}

TEST(AccountCursor, CorruptSpillDirectorySurfacesThroughStatusNeverSilently) {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/31);
  cfg.num_users = 5;
  cfg.num_days = 20;
  const fs::path dir = scratch_dir("cursor_corrupt");
  core::PipelineOptions options;
  options.account_dir = dir.string();
  options.account_budget_bytes = 8 * 1024;
  sim::StudyGenerator generator{cfg};
  core::StudyPipeline pipeline{&generator, options};
  ASSERT_TRUE(pipeline.run().ok());

  // Flip one payload byte in the first sealed file.
  const fs::path victim = dir / energy::account_file_name(1);
  ASSERT_TRUE(fs::exists(victim));
  {
    std::ifstream in{victim, std::ios::binary};
    std::string bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    in.close();
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    write_file(victim, bytes);
  }

  energy::AccountCursor cursor{pipeline.ledger()};
  EXPECT_EQ(cursor.next(), nullptr);
  ASSERT_FALSE(cursor.status().ok());
  EXPECT_EQ(cursor.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(cursor.status().message().find(energy::account_file_name(1)), std::string::npos)
      << "status does not name the damaged file: " << cursor.status().message();
  fs::remove_all(dir);
}

TEST(AccountCursor, MissingAccountFileOrDirectoryIsDataLossNeverFewerRows) {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/31);
  cfg.num_users = 30;
  cfg.num_days = 20;
  for (const bool whole_directory : {false, true}) {
    SCOPED_TRACE(whole_directory ? "directory removed" : "first file removed");
    const fs::path dir = scratch_dir("cursor_missing");
    core::PipelineOptions options;
    options.account_dir = dir.string();
    options.account_budget_bytes = 8 * 1024;
    sim::StudyGenerator generator{cfg};
    core::StudyPipeline pipeline{&generator, options};
    analysis::PersistenceAnalysis persistence;
    pipeline.add_analysis("persistence", &persistence);
    ASSERT_TRUE(pipeline.run().ok());
    ASSERT_GE(pipeline.ledger().account_spill()->sealed_files(), 2u);

    if (whole_directory) {
      fs::remove_all(dir);
    } else {
      ASSERT_TRUE(fs::remove(dir / energy::account_file_name(1)));
    }

    energy::AccountCursor cursor{pipeline.ledger()};
    while (cursor.next() != nullptr) {
    }
    ASSERT_FALSE(cursor.status().ok()) << "a missing account file read as fewer rows";
    EXPECT_EQ(cursor.status().code(), util::StatusCode::kDataLoss);
    EXPECT_NE(cursor.status().message().find(energy::account_file_name(1)), std::string::npos)
        << "status does not name the missing file: " << cursor.status().message();

    (void)persistence.durations(0);
    EXPECT_FALSE(persistence.hydrate_status().ok())
        << "persistence hydrated from an incomplete account directory";
    fs::remove_all(dir);
  }
}

// ------------------------------------------------------- corruption matrix

/// A hand-built clean account file with a few multi-section row groups.
std::string build_clean_account_file() {
  energy::AccountFileWriter writer;
  for (const trace::UserId user : {0u, 2u, 5u}) {
    writer.begin_user(user);
    (void)writer.add_section("ledger", "ledger-payload-for-user-" + std::to_string(user));
    (void)writer.add_section("persist", std::string(64, static_cast<char>('a' + user)));
    writer.end_user();
  }
  return writer.finish();
}

TEST(AccountFileCorruption, EveryDamageKindIsDetectedNeverSilent) {
  const fs::path dir = scratch_dir("corruption");
  fs::create_directories(dir);
  const std::string clean = build_clean_account_file();
  const fs::path file = dir / energy::account_file_name(1);
  write_file(file, clean);
  {
    energy::MappedAccountFile mapped;
    ASSERT_TRUE(mapped.open(file.string()).ok());
    ASSERT_EQ(mapped.rows().size(), 3u);
  }

  for (const fault::CorruptionKind kind :
       {fault::CorruptionKind::kBitFlip, fault::CorruptionKind::kTruncate,
        fault::CorruptionKind::kDuplicateSpan, fault::CorruptionKind::kSwapSpans}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto damaged = fault::apply_corruption(clean, {kind, seed});
      ASSERT_TRUE(damaged.ok());
      write_file(file, *damaged);

      energy::MappedAccountFile mapped;
      const util::Status opened = mapped.open(file.string());
      if (*damaged == clean) {
        // Degenerate corruption (e.g. swapping identical spans): the bytes
        // did not change, so the file must still open and replay.
        ASSERT_TRUE(opened.ok())
            << fault::to_string(kind) << " seed " << seed << ": " << opened.to_string();
        EXPECT_EQ(mapped.rows().size(), 3u);
      } else {
        ASSERT_FALSE(opened.ok())
            << fault::to_string(kind) << " seed " << seed << ": damage went undetected";
        EXPECT_EQ(opened.code(), util::StatusCode::kDataLoss);
        EXPECT_NE(opened.message().find(energy::account_file_name(1)), std::string::npos)
            << "status does not name the damaged file: " << opened.message();
      }
    }
  }
  fs::remove_all(dir);
}

// -------------------------------------------------------- kill and recover

// FaultPlan owns a mutex, so it cannot be returned by value — arm in place.
void arm_hard_stop(fault::FaultPlan& plan, std::uint64_t nth) {
  plan.add_checkpoint_fault(
      fault::parse_checkpoint_fault_spec("nth=" + std::to_string(nth) + ",kind=hard-stop")
          .value());
}

TEST(KillRecoverAccountPlane, ResumedFoldRunBitIdenticalAtEveryThreadCount) {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/23);
  cfg.num_days = 30;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Reference: fully resident, uninterrupted, no checkpointing at all.
    sim::StudyGenerator reference_gen{cfg};
    core::StudyPipeline reference{&reference_gen, {{.num_threads = threads}}};
    analysis::PersistenceAnalysis reference_persist;
    reference.add_analysis("persistence", &reference_persist);
    ASSERT_TRUE(reference.run().ok());
    const auto reference_rows = cursor_accounts(reference.ledger());

    const fs::path ckpt_dir = scratch_dir("kill_ckpt_t" + std::to_string(threads));
    const fs::path account_dir = scratch_dir("kill_accounts_t" + std::to_string(threads));
    // Kill: per-user checkpoints over a fold run, hard stop after the third.
    fault::FaultPlan plan;
    arm_hard_stop(plan, 3);
    {
      core::PipelineOptions options;
      options.num_threads = threads;
      options.checkpoint_dir = ckpt_dir.string();
      options.checkpoint_every_users = 1;
      options.fault_plan = &plan;
      options.account_dir = account_dir.string();
      options.account_budget_bytes = 8 * 1024;
      sim::StudyGenerator killed_gen{cfg};
      core::StudyPipeline killed{&killed_gen, options};
      analysis::PersistenceAnalysis killed_persist;
      killed.add_analysis("persistence", &killed_persist);
      EXPECT_THROW((void)killed.run(), fault::ShardFault);
    }

    // Recover: fresh process state, fresh sinks, same directories.
    core::PipelineOptions options;
    options.num_threads = threads;
    options.checkpoint_dir = ckpt_dir.string();
    options.resume = true;
    options.account_dir = account_dir.string();
    options.account_budget_bytes = 8 * 1024;
    sim::StudyGenerator resumed_gen{cfg};
    core::StudyPipeline resumed{&resumed_gen, options};
    analysis::PersistenceAnalysis resumed_persist;
    resumed.add_analysis("persistence", &resumed_persist);
    const auto stats = resumed.run();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    EXPECT_EQ(stats->resumed_users, 3u);

    EXPECT_EQ(reference.ledger().total_joules(), resumed.ledger().total_joules());
    EXPECT_EQ(reference.ledger().total_bytes(), resumed.ledger().total_bytes());
    EXPECT_EQ(reference.attributor().attributed_joules(),
              resumed.attributor().attributed_joules());
    EXPECT_EQ(resumed.ledger().num_accounts(), 0u);
    expect_identical_rows(reference_rows, cursor_accounts(resumed.ledger()));
    for (const trace::AppId app : reference_persist.tracked_apps()) {
      const auto ra = reference_persist.durations(app).sorted_samples();
      const auto sa = resumed_persist.durations(app).sorted_samples();
      ASSERT_TRUE(resumed_persist.hydrate_status().ok())
          << resumed_persist.hydrate_status().to_string();
      ASSERT_EQ(ra.size(), sa.size());
      for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], sa[i]);
    }
    fs::remove_all(ckpt_dir);
    fs::remove_all(account_dir);
  }
}

// ------------------------------------------------------- golden guardrail

/// Every output the account plane feeds, folded into one string: integers in
/// decimal, doubles as hexfloat (exact), ';'-separated, then FNV-1a.
class PlaneDigest {
 public:
  void put(double value) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a;", value);
    text_ += buf;
  }
  template <typename T>
    requires std::is_integral_v<T>
  void put(T value) {
    text_ += std::to_string(value);
    text_ += ';';
  }
  [[nodiscard]] std::uint64_t value() const { return ckpt::fnv1a(text_); }

 private:
  std::string text_;
};

/// The five analyses with per-user account state, on the apps the golden
/// study exercises.
struct PlaneAnalyses {
  std::vector<trace::AppId> tracked{0, 1, 2, 3, 4, 5, 6, 7};
  analysis::PersistenceAnalysis persistence;
  analysis::TimeSinceForegroundAnalysis time_since_fg;
  analysis::WastedUpdateAnalysis waste{tracked};
  analysis::CaseStudyAnalysis cases{tracked};
  analysis::LongitudinalAnalysis longitudinal{tracked};

  void attach(core::StudyPipeline& pipeline) {
    pipeline.add_analysis("persistence", &persistence);
    pipeline.add_analysis("time_since_fg", &time_since_fg);
    pipeline.add_analysis("waste", &waste);
    pipeline.add_analysis("cases", &cases);
    pipeline.add_analysis("longitudinal", &longitudinal);
  }
};

/// Ledger cursor rows and totals, attributor splits, and every analysis
/// result — persistence samples in their stored order, not sorted.
std::uint64_t plane_digest(const core::StudyPipeline& pipeline, PlaneAnalyses& set) {
  PlaneDigest d;
  const energy::EnergyLedger& ledger = pipeline.ledger();
  d.put(ledger.total_joules());
  d.put(ledger.total_bytes());
  d.put(ledger.total_packets());
  for (const double joules : ledger.state_totals()) d.put(joules);
  d.put(ledger.total_accounts());
  const auto rows = cursor_accounts(ledger);
  d.put(rows.size());
  for (const auto& acc : rows) {
    d.put(acc.user);
    d.put(acc.app);
    d.put(acc.bytes);
    d.put(acc.packets);
    d.put(acc.joules);
    for (const double joules : acc.state_joules) d.put(joules);
    d.put(acc.days.size());
    for (const auto& day : acc.days) {
      d.put(day.fg_joules);
      d.put(day.bg_joules);
      d.put(day.fg_bytes);
      d.put(day.bg_bytes);
    }
  }
  for (const trace::UserId user : ledger.users()) d.put(user);
  for (const trace::AppId app : ledger.apps()) {
    const energy::AppUserAccount total = ledger.app_total(app);
    d.put(app);
    d.put(total.bytes);
    d.put(total.packets);
    d.put(total.joules);
    for (const double joules : total.state_joules) d.put(joules);
  }
  for (const auto& entry : analysis::top10_popularity(ledger)) {
    d.put(entry.app);
    d.put(entry.users_with_app_in_top10);
  }
  util::Status whatif_status;
  const auto whatif = analysis::whatif_overall(ledger, 3, &whatif_status);
  EXPECT_TRUE(whatif_status.ok()) << whatif_status.to_string();
  d.put(whatif.saved_joules);
  d.put(whatif.total_joules);

  const energy::EnergyAttributor& attributor = pipeline.attributor();
  d.put(attributor.device_joules());
  d.put(attributor.attributed_joules());
  d.put(attributor.baseline_joules());
  d.put(attributor.tail_joules());
  d.put(attributor.promotion_joules());
  d.put(attributor.transfer_joules());
  const energy::AttributionCounters& c = attributor.counters();
  for (const std::uint64_t v : {c.packets, c.transitions, c.users, c.tail_attributions,
                                c.promotion_segments, c.transfer_segments, c.tail_segments,
                                c.drx_segments, c.idle_segments}) {
    d.put(v);
  }

  for (const trace::AppId app : set.persistence.tracked_apps()) {
    d.put(app);
    const auto samples = set.persistence.durations(app).samples();
    d.put(samples.size());
    for (const double s : samples) d.put(s);
  }
  EXPECT_TRUE(set.persistence.hydrate_status().ok())
      << set.persistence.hydrate_status().to_string();
  for (const double mass : set.time_since_fg.bytes_histogram().masses()) d.put(mass);
  for (const auto& [app, tally] : set.time_since_fg.app_tallies()) {
    d.put(app);
    d.put(tally.bg_bytes);
    d.put(tally.bg_bytes_first_minute);
  }
  d.put(set.time_since_fg.fraction_of_apps_frontloaded());
  for (const trace::AppId app : set.tracked) {
    const analysis::WasteResult w = set.waste.result(app);
    d.put(w.updates);
    d.put(w.wasted_updates);
    d.put(w.joules);
    d.put(w.wasted_joules);
    const analysis::CaseStudyResult cs = set.cases.result(app);
    d.put(cs.joules_total);
    d.put(cs.bytes_total);
    d.put(cs.flows);
    d.put(cs.days_active);
    d.put(cs.early_period_s);
    d.put(cs.late_period_s);
    const analysis::EraComparison era = set.longitudinal.era_comparison(app);
    d.put(era.early_joules_per_day);
    d.put(era.late_joules_per_day);
    d.put(era.early_uj_per_byte);
    d.put(era.late_uj_per_byte);
  }
  EXPECT_TRUE(set.cases.hydrate_status().ok()) << set.cases.hydrate_status().to_string();
  // The study must exercise every analysis, or the digest would pin zeros.
  EXPECT_FALSE(set.persistence.tracked_apps().empty());
  EXPECT_TRUE(std::any_of(set.tracked.begin(), set.tracked.end(), [&set](trace::AppId app) {
    return set.waste.result(app).wasted_updates > 0 && set.cases.result(app).flows > 0 &&
           set.longitudinal.era_comparison(app).late_uj_per_byte > 0.0;
  }));
  const analysis::WeeklySeries& weekly = set.longitudinal.overall();
  d.put(weekly.weeks());
  for (std::size_t w = 0; w < weekly.weeks(); ++w) {
    d.put(weekly.fg_joules[w]);
    d.put(weekly.bg_joules[w]);
  }
  return d.value();
}

sim::StudyConfig golden_config() {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/23);
  cfg.num_days = 30;
  return cfg;
}

/// How a golden run keeps its accounts.
enum class Lifecycle {
  kResident,          ///< no directory of any kind
  kAccountDir,        ///< account_dir, small budget: several sealed files
  kKillResume,        ///< checkpoints every user, hard stop after the third, resume
  kKillResumeAccounts ///< the same, with an account_dir
};

const char* to_string(Lifecycle lifecycle) {
  switch (lifecycle) {
    case Lifecycle::kResident: return "resident";
    case Lifecycle::kAccountDir: return "account_dir";
    case Lifecycle::kKillResume: return "kill_resume";
    case Lifecycle::kKillResumeAccounts: return "kill_resume_accounts";
  }
  return "?";
}

/// One golden run of `lifecycle` over the source `make_source` builds (a
/// fresh one per attempt: forward-only sources are consumed by a run).
template <typename MakeSource>
std::uint64_t golden_run(Lifecycle lifecycle, unsigned threads, const std::string& tag,
                         MakeSource make_source) {
  const fs::path ckpt_dir = scratch_dir("golden_ckpt_" + tag);
  const fs::path account_dir = scratch_dir("golden_accounts_" + tag);
  core::PipelineOptions options;
  options.num_threads = threads;
  if (lifecycle == Lifecycle::kAccountDir || lifecycle == Lifecycle::kKillResumeAccounts) {
    options.account_dir = account_dir.string();
    options.account_budget_bytes = 8 * 1024;
  }
  const bool kill = lifecycle == Lifecycle::kKillResume ||
                    lifecycle == Lifecycle::kKillResumeAccounts;
  if (kill) {
    options.checkpoint_dir = ckpt_dir.string();
    options.checkpoint_every_users = 1;
    fault::FaultPlan plan;
    arm_hard_stop(plan, 3);
    core::PipelineOptions killed_options = options;
    killed_options.fault_plan = &plan;
    auto source = make_source();
    core::StudyPipeline killed{source->get(), killed_options};
    PlaneAnalyses killed_set;
    killed_set.attach(killed);
    EXPECT_THROW((void)killed.run(), fault::ShardFault);
    options.resume = true;
  }
  auto source = make_source();
  core::StudyPipeline pipeline{source->get(), options};
  PlaneAnalyses set;
  set.attach(pipeline);
  const auto stats = pipeline.run();
  EXPECT_TRUE(stats.ok()) << stats.status().to_string();
  if (!stats.ok()) return 0;
  if (kill) {
    EXPECT_EQ(stats->resumed_users, 3u);
  }
  EXPECT_GT(pipeline.ledger().total_accounts(), 0u);
  const std::uint64_t digest = plane_digest(pipeline, set);
  fs::remove_all(ckpt_dir);
  fs::remove_all(account_dir);
  return digest;
}

/// `cfg` as CSV whose user brackets arrive in descending id order — an
/// order the generator never produces but an imported trace may.
std::string descending_csv(const sim::StudyConfig& cfg) {
  struct StudyStrip final : trace::TraceSink {
    explicit StudyStrip(trace::TraceSink* out) : out(out) {}
    void on_user_begin(trace::UserId user) override { out->on_user_begin(user); }
    void on_batch(const trace::EventBatch& batch) override { out->on_batch(batch); }
    void on_user_end(trace::UserId user) override { out->on_user_end(user); }
    trace::TraceSink* out;
  };
  sim::StudyGenerator generator{cfg};
  std::ostringstream os;
  trace::CsvTraceWriter writer{os};
  StudyStrip strip{&writer};
  writer.on_study_begin(generator.meta());
  std::vector<trace::UserId> users = generator.users();
  std::reverse(users.begin(), users.end());
  for (const trace::UserId user : users) EXPECT_TRUE(generator.emit_user(user, strip, 64).ok());
  writer.on_study_end();
  return os.str();
}

/// A CsvTraceSource over its own copy of `csv`.
struct CsvInput {
  explicit CsvInput(const std::string& csv) : stream(csv), source(stream) {}
  std::istringstream stream;
  trace::CsvTraceSource source;
  trace::TraceSource* get() { return &source; }
};

/// Recorded while resident and fold-and-release were still two separate
/// representations of the account plane.
constexpr std::uint64_t kGoldenPlaneDigest = 0x60e2027abb380da5ull;
constexpr std::uint64_t kGoldenDescendingCsvDigest = 0x9e3dd9eb5a41c82bull;

TEST(AccountPlaneGolden, EveryLifecycleAndThreadCountReproducesTheRecord) {
  const sim::StudyConfig cfg = golden_config();
  for (const Lifecycle lifecycle : {Lifecycle::kResident, Lifecycle::kAccountDir,
                                    Lifecycle::kKillResume, Lifecycle::kKillResumeAccounts}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      const std::string tag = std::string(to_string(lifecycle)) + "_t" + std::to_string(threads);
      SCOPED_TRACE(tag);
      const std::uint64_t digest = golden_run(lifecycle, threads, tag, [&cfg] {
        struct Generated {
          explicit Generated(const sim::StudyConfig& c) : generator(c) {}
          sim::StudyGenerator generator;
          trace::TraceSource* get() { return &generator; }
        };
        return std::make_unique<Generated>(cfg);
      });
      EXPECT_EQ(digest, kGoldenPlaneDigest) << std::hex << "0x" << digest;
    }
  }
}

TEST(AccountPlaneGolden, DescendingUserCsvReproducesTheRecord) {
  const std::string csv = descending_csv(golden_config());
  for (const Lifecycle lifecycle : {Lifecycle::kResident, Lifecycle::kKillResume}) {
    const std::string tag = std::string("csv_") + to_string(lifecycle);
    SCOPED_TRACE(tag);
    const std::uint64_t digest = golden_run(lifecycle, 1, tag, [&csv] {
      return std::make_unique<CsvInput>(csv);
    });
    EXPECT_EQ(digest, kGoldenDescendingCsvDigest) << std::hex << "0x" << digest;
  }
}

TEST(AccountPlaneGolden, DescendingCsvFoldsReproduceTheResidentRecord) {
  // Users that arrive out of id order stay pending until the stream ends and
  // then fold in ascending order, into an account directory or beside a
  // checkpoint — the resident record still holds.
  const std::string csv = descending_csv(golden_config());
  for (const Lifecycle lifecycle : {Lifecycle::kAccountDir, Lifecycle::kKillResumeAccounts}) {
    const std::string tag = std::string("csv_") + to_string(lifecycle);
    SCOPED_TRACE(tag);
    const std::uint64_t digest = golden_run(lifecycle, 1, tag, [&csv] {
      return std::make_unique<CsvInput>(csv);
    });
    EXPECT_EQ(digest, kGoldenDescendingCsvDigest) << std::hex << "0x" << digest;
  }

  // A sweep captures the same CSV into a store whose users() keep the
  // descending stream order, so its random-access replay defers folds too.
  CsvInput reference_input{csv};
  core::StudyPipeline reference{reference_input.get()};
  analysis::PersistenceAnalysis reference_persist;
  reference.add_analysis("persistence", &reference_persist);
  ASSERT_TRUE(reference.run().ok());
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("sweep threads=" + std::to_string(threads));
    const fs::path dir = scratch_dir("csv_sweep_t" + std::to_string(threads));
    CsvInput input{csv};
    core::SweepOptions options;
    options.num_threads = threads;
    options.account_dir = dir.string();
    core::SweepEngine sweep{input.get(), options};
    analysis::PersistenceAnalysis persist;
    core::Scenario baseline;
    baseline.name = "baseline";
    baseline.analyses.emplace_back("persistence", &persist);
    sweep.add_scenario(std::move(baseline));
    const auto stats = sweep.run();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    expect_identical_ledgers(reference.ledger(), sweep.results()[0].ledger);
    for (const trace::AppId app : reference_persist.tracked_apps()) {
      const auto want = reference_persist.durations(app).samples();
      const auto got = persist.durations(app).samples();
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end())) << "app " << app;
    }
    EXPECT_TRUE(persist.hydrate_status().ok()) << persist.hydrate_status().to_string();
    fs::remove_all(dir);
  }
}

TEST(KillRecoverAccountPlane, Version1CheckpointIsRefusedOnResume) {
  const fs::path ckpt_dir = scratch_dir("v1_ckpt");
  core::PipelineOptions options;
  options.checkpoint_dir = ckpt_dir.string();
  {
    sim::StudyGenerator generator{golden_config()};
    core::StudyPipeline pipeline{&generator, options};
    ASSERT_TRUE(pipeline.run().ok());
  }
  // Rewrite every snapshot as version 1 with a valid checksum.
  std::size_t rewritten = 0;
  for (const auto& entry : fs::directory_iterator(ckpt_dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in{entry.path(), std::ios::binary};
    std::string bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    in.close();
    bytes[sizeof ckpt::kCheckpointMagic] = 1;
    const std::uint64_t checksum =
        ckpt::fnv1a(std::string_view{bytes}.substr(0, bytes.size() - 8));
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[bytes.size() - 8 + i] = static_cast<char>(checksum >> (8 * i));
    }
    write_file(entry.path(), bytes);
    ++rewritten;
  }
  ASSERT_GT(rewritten, 0u);

  options.resume = true;
  sim::StudyGenerator generator{golden_config()};
  core::StudyPipeline resumed{&generator, options};
  const auto stats = resumed.run();
  ASSERT_FALSE(stats.ok()) << "a version-1 snapshot was resumed";
  EXPECT_NE(stats.status().message().find("unsupported checkpoint version 1"), std::string::npos)
      << stats.status().to_string();
  fs::remove_all(ckpt_dir);
}

}  // namespace
}  // namespace wildenergy

// StudyPipeline: the top-level façade tying the whole system together.
//
//   trace source (trace/trace_source.h)
//                     ->  [optional policy filter (core/policy.h)]
//                     ->  energy attribution (energy/attributor.h)
//                     ->  ledger + user-registered analyses
//
// The source is anything emitting the canonical event stream — a
// sim::StudyGenerator, the CSV reader (trace/csv_io.h), or a captured
// trace::SpillingTraceStore, resident or sealed — one execution engine for
// live simulation and replay alike. The pipeline never owns its source: the
// caller holds it (and its catalog), so source lifetime and app-name lookups
// are explicit at every call site.
//
// Typical use (see examples/quickstart.cpp):
//
//   sim::StudyGenerator generator{sim::small_study()};
//   core::StudyPipeline pipeline{&generator};
//   analysis::PersistenceAnalysis persistence;     // any TraceSink
//   pipeline.add_analysis(&persistence);
//   auto stats = pipeline.run();                   // StatusOr<obs::RunStats>
//   auto breakdown = analysis::overall_state_breakdown(pipeline.ledger());
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "energy/account_file.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "obs/run_stats.h"
#include "obs/trace_writer.h"
#include "trace/batch.h"
#include "trace/sink.h"
#include "trace/trace_source.h"
#include "util/status.h"

namespace wildenergy::fault {
class FaultPlan;
}  // namespace wildenergy::fault

namespace wildenergy::core {

/// Builds a policy filter (core/policy.h) given the downstream sink the
/// filter must forward to. Shared by StudyPipeline::set_policy and
/// Scenario::policy (core/sweep.h).
using PolicyFactory = std::function<std::unique_ptr<trace::TraceSink>(trace::TraceSink*)>;

/// What a throwing shard means for the rest of the run.
enum class FailurePolicy : std::uint8_t {
  /// Propagate the first shard failure out of run() (the pre-PR-3 behavior).
  kFailFast = 0,
  /// Retry the failed shard up to max_shard_retries times (re-running a
  /// shard is deterministic by construction); if it still fails, skip that
  /// user, record the failure in RunStats (failed_users, shard_retries,
  /// per-shard status), and keep going. The merged result is bit-identical
  /// to a serial run over the surviving users.
  kRetryThenSkip,
};

/// The execution engine's run knobs (core/engine.h), declared once for both
/// façades: PipelineOptions (one scenario) and SweepOptions (K scenarios)
/// derive from it, and the engine reads it as is.
struct RunOptions {
  /// Worker threads for the execution engine. A run is one shard per
  /// (scenario, user); at most 2 × num_threads shard chains are alive at
  /// once and they merge back in scenario-major, user-id order. 1 (default)
  /// runs every shard inline on the calling thread; N > 1 uses
  /// min(N, users per scenario) workers. Every output is bit-identical
  /// for every value (see trace/shardable.h). With N > 1 the radio factories
  /// must be safe to invoke concurrently.
  unsigned num_threads = 1;
  /// Events per EventBatch on the source -> sinks path (and a sweep's
  /// capture); ≥ 1 (check() rejects 0). Outputs are bit-identical for every
  /// value (trace/batch.h); the shared default (trace::kDefaultBatchSize,
  /// also used by trace::ReadOptions and the CLI --batch-size flag) is a
  /// cache-friendly span that measures well on the micro_pipeline sweep.
  std::size_t batch_size = trace::kDefaultBatchSize;
  /// Shard failure handling, applied per scenario: kRetryThenSkip skips a
  /// user in that scenario only. Retries run on the calling thread, so
  /// outputs stay bit-identical across thread counts either way.
  FailurePolicy failure_policy = FailurePolicy::kFailFast;
  /// Extra attempts a failed shard gets under kRetryThenSkip before its
  /// user is skipped.
  unsigned max_shard_retries = 2;
  /// Scripted shard faults for tests/benches/CLI (--inject-fault).
  /// Non-owning; must outlive run(). Under kFailFast an injected fault
  /// propagates out of run() as fault::ShardFault. A spec matching user U
  /// arms once per (scenario, user) chain build, in scenario order; a user's
  /// retries settle before its next scenario's chain is built, so arming
  /// never depends on thread timing.
  fault::FaultPlan* fault_plan = nullptr;
  /// Directory for crash-recovery checkpoints (src/ckpt/, CLI
  /// --checkpoint-dir). Empty (default) disables checkpointing. When set,
  /// every registered sink must implement ckpt::CheckpointableSink (the
  /// default analysis set does) — run() refuses otherwise, naming the sink.
  /// A snapshot is written after every checkpoint_every_users merged users
  /// of a scenario, after its last one, and as a scenario closes with more
  /// to follow, for every source and thread count; the forward-only readers
  /// snapshot mid-stream the same way. A checkpointed run's outputs are
  /// bit-identical to an unchecked one. Per-shard rows and stage profiles
  /// of work done before a kill are not checkpointed (counters and results
  /// are).
  std::string checkpoint_dir{};
  /// Completed users between checkpoints (CLI --checkpoint-every). Clamped
  /// up to 1.
  std::size_t checkpoint_every_users = 4;
  /// Resume from the newest good checkpoint in checkpoint_dir: finished
  /// scenarios are restored verbatim, completed users are skipped, their
  /// partial sink state is folded back in, and the finished run is
  /// bit-identical to an uninterrupted one. A missing, corrupt, or stale
  /// (different study/sink set) checkpoint fails run() with a positioned
  /// status — resume never silently restarts from zero. Each façade checks
  /// where it may resume from (a sweep also from its store_dir).
  bool resume = false;
  /// Directory for the folded per-user account detail rows (CLI
  /// --account-dir). Every run folds each user as it completes (DESIGN.md
  /// §15): the engine collapses the user's rows in every sink (attributor,
  /// ledger, analyses) into running aggregates, the detail rows go to WEAC
  /// account images, and the per-user slabs are freed — so resident detail
  /// memory stays bounded instead of growing with the population. The
  /// images are files under this directory (a sweep uses one subdirectory
  /// s<index> per scenario, in registration order); when it is empty they
  /// go under `<checkpoint_dir>/accounts` for a checkpointed run, else they
  /// stay in memory. Aggregates and every cursor-based figure are
  /// bit-identical wherever the images live. Resuming a checkpointed run
  /// must pass the same directory.
  std::string account_dir{};
  /// Soft budget for each scenario's account spill (CLI --account-budget);
  /// the pending writer seals as it fills so unsealed account bytes stay
  /// under it. 0 applies the AccountSpill default. Requires account_dir.
  std::uint64_t account_budget_bytes = 0;
  /// Profile each stage's self time and per-sink throughput during run()
  /// (obs::RunStats::stages; per scenario in a sweep). Off by default: it
  /// costs two clock reads per callback per stage; totals and counters are
  /// collected regardless.
  bool collect_stage_stats = false;
  /// Optional Chrome-trace span export (implies stage profiling): one
  /// `shard` span per (scenario, user) task plus the `run` span.
  /// Non-owning; must outlive run(). Load the written file at
  /// https://ui.perfetto.dev.
  obs::TraceWriter* trace_writer = nullptr;

  /// The checks every run makes before it touches its source: batch_size
  /// ≥ 1, and an account budget only with an account directory.
  [[nodiscard]] util::Status check() const;
};

/// One scenario's run: the engine knobs plus how it attributes.
struct PipelineOptions : RunOptions {
  /// Radio model per user device; empty means LTE (energy/attributor.h).
  energy::RadioModelFactory radio_factory{};
  /// Tail-energy attribution rule (paper rule by default).
  energy::TailPolicy tail_policy = energy::TailPolicy::kLastPacket;
  /// Interface under analysis; non-matching packets are dropped before
  /// attribution (paper §3: the analyses are cellular-only).
  trace::Interface interface = trace::Interface::kCellular;
};

class StudyPipeline {
 public:
  /// Run over a trace source (caller-owned sim::StudyGenerator, file
  /// reader, or captured SpillingTraceStore). Non-owning; must outlive the
  /// pipeline.
  /// A run is one scenario of the execution engine (core/engine.h).
  /// Forward-only sources (supports_user_access() == false) are split into
  /// per-user shards on the reading thread, one at a time, whatever
  /// num_threads says; scripted fault plans and retries — which rebuild a
  /// user's shard — do not apply to them.
  explicit StudyPipeline(trace::TraceSource* source, PipelineOptions options = {});

  /// Register an analysis sink that receives the energy-annotated stream.
  /// Non-owning; must outlive run(). The named overload labels the sink in
  /// RunStats::stages and trace spans; the unnamed one auto-numbers it.
  void add_analysis(trace::TraceSink* sink);
  void add_analysis(std::string name, trace::TraceSink* sink);

  /// Install a policy filter between the source and attribution. The
  /// factory receives the downstream sink the filter must forward to, and
  /// the pipeline keeps the filter alive. Call before run().
  using PolicyFactory = core::PolicyFactory;
  void set_policy(PolicyFactory factory);

  /// Stream + attribute + analyze. May be called repeatedly; each run
  /// resets the ledger and re-streams the study. Results (ledger, analyses,
  /// figures) are bit-identical at every num_threads.
  ///
  /// Returns the run's RunStats, or the source's error when it failed to
  /// emit (unreadable file, corrupt stream under a strict read policy).
  /// Under FailurePolicy::kFailFast a shard failure still propagates as an
  /// exception (fault::ShardFault); under kRetryThenSkip exhausted shards
  /// are reported inside the returned stats, not as an error.
  util::StatusOr<obs::RunStats> run();

  [[nodiscard]] const energy::EnergyLedger& ledger() const { return ledger_; }
  /// Bytes on the non-analyzed interface, dropped before attribution.
  [[nodiscard]] std::uint64_t off_interface_bytes() const { return off_interface_bytes_; }
  /// The trace source this pipeline streams from.
  [[nodiscard]] trace::TraceSource& source() const { return *source_; }
  [[nodiscard]] const energy::EnergyAttributor& attributor() const { return attributor_; }

 private:
  trace::TraceSource* source_;  ///< caller-owned
  PipelineOptions options_;
  energy::EnergyLedger ledger_;
  trace::TraceMulticast downstream_;  ///< stays empty: shard chains feed the sinks
  energy::EnergyAttributor attributor_;
  PolicyFactory policy_factory_;
  /// The last run's account spill; owned here (not per-run) because
  /// post-run queries read its sealed images through ledger_.account_spill().
  std::shared_ptr<energy::AccountSpill> account_spill_;
  std::uint64_t off_interface_bytes_ = 0;
  /// Registered analyses, in registration order.
  std::vector<std::pair<std::string, trace::TraceSink*>> analyses_;
  obs::RunStats stats_;
};

}  // namespace wildenergy::core

// SweepEngine: simulate once, replay many.
//
// A what-if study ("kill background traffic after N idle days, for N in
// 1..14", "LTE vs fast dormancy vs UMTS") evaluates many scenarios over the
// SAME canonical event stream. Running one StudyPipeline per scenario pays
// trace generation — ~75% of pipeline wall time — once per scenario for
// byte-identical events. The sweep engine captures the base source into a
// trace::SpillingTraceStore once — all resident, or sealed into WESG segments
// under SweepOptions::store_dir — then runs one task per user over one
// window of workers: each task replays its user's cached columns once and
// feeds every scenario's chain from that one decode:
//
//   core::SweepEngine sweep{&generator};
//   sweep.add_scenario({.name = "baseline"});
//   sweep.add_scenario({.name = "kill-3d",
//                       .policy = core::KillAfterIdlePolicy::factory(...)});
//   auto stats = sweep.run();                         // StatusOr<obs::RunStats>
//   const core::ScenarioResult* kill = sweep.result("kill-3d");
//
// Every scenario's outputs (ledger, analyses, per-scenario RunStats counters)
// are bit-identical to a standalone StudyPipeline run of that scenario over
// the same source, for every thread count: a sweep is a K-scenario run of the
// same execution engine (core/engine.h) a pipeline is a one-scenario run of,
// merging shards in stream (user-id) order under the same ShardableSink
// discipline (trace/shardable.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "obs/run_stats.h"
#include "trace/spilling_store.h"
#include "trace/trace_source.h"
#include "util/status.h"

namespace wildenergy::core {

/// One what-if variant: a policy filter × radio/tail-policy variant × set of
/// analysis sinks, evaluated over the shared cached trace.
struct Scenario {
  std::string name;
  /// Policy filter between replay and attribution; empty = baseline.
  PolicyFactory policy{};
  /// Radio model for this scenario's devices; empty = LTE (the pipeline
  /// default). Must be safe to invoke concurrently when num_threads > 1.
  energy::RadioModelFactory radio_factory{};
  energy::TailPolicy tail_policy = energy::TailPolicy::kLastPacket;
  trace::Interface interface = trace::Interface::kCellular;
  /// Analysis sinks receiving this scenario's energy-annotated stream.
  /// Non-owning; must outlive run(). Shardable sinks ride the parallel
  /// merge; a custom non-shardable sink is wrapped in a collect-splice
  /// adapter (core/engine.cpp) and merged in user-id order.
  std::vector<std::pair<std::string, trace::TraceSink*>> analyses{};
};

/// One completed (scenario × user) shard, reported through
/// SweepOptions::progress so long sweeps are not silent (CLI --progress).
struct SweepProgress {
  std::size_t completed = 0;       ///< shards merged so far
  std::size_t total = 0;           ///< shards this run merges (K × users unless resuming)
  std::size_t scenario_index = 0;  ///< scenario of the shard that just finished
  trace::UserId user = 0;          ///< its user
};

/// A sweep's run: the engine knobs (shared by every scenario's shards) plus
/// progress reporting and where the captured study lives.
struct SweepOptions : RunOptions {
  /// Invoked once per completed (scenario, user) shard, on the thread that
  /// called run(), as the shard merges (never concurrently). Keep it cheap —
  /// it runs inside the merge path.
  std::function<void(const SweepProgress&)> progress{};
  /// Out-of-core capture (CLI --store-dir): when non-empty, the sweep's
  /// trace::SpillingTraceStore seals WESG segments into this directory;
  /// empty keeps the captured study resident. Replay semantics (and every
  /// scenario output) are bit-identical either way. With resume set, the
  /// store reopens sealed segments here and captures only the users they do
  /// not already cover (checkpoint_dir may then stay empty).
  std::string store_dir{};
  /// Resident column budget for the spilling store (CLI --store-budget).
  /// 0 = fully out-of-core. Ignored when store_dir is empty.
  std::uint64_t store_budget_bytes = 0;
};

/// One scenario's outcome: its ledger, its per-scenario RunStats (totals,
/// attribution/radio counters, shard retries and skipped users), and an
/// overall status (non-OK when the scenario's replay itself failed).
struct ScenarioResult {
  std::string name;
  energy::EnergyLedger ledger;
  obs::RunStats stats;
  util::Status status;
};

class SweepEngine {
 public:
  /// Capture `base` into the engine's store on the first run() — simulate
  /// once — then replay it for every scenario. Non-owning; `base` must
  /// outlive the first run() and support whole-study emission. The store
  /// seals into SweepOptions::store_dir when it is set.
  explicit SweepEngine(trace::TraceSource* base, SweepOptions options = {});

  /// Register a scenario. Order is preserved; results() matches it.
  void add_scenario(Scenario scenario);

  /// Capture (first run only) + replay every scenario. Returns the sweep's
  /// aggregate RunStats — wall time, thread count, store users, and totals
  /// summed across scenarios — or the capture error. Per-scenario detail
  /// (including per-scenario replay status) is in results(). Under
  /// FailurePolicy::kFailFast a shard failure propagates as an exception,
  /// exactly like StudyPipeline::run().
  util::StatusOr<obs::RunStats> run();

  [[nodiscard]] const std::vector<ScenarioResult>& results() const { return results_; }
  /// Lookup by scenario name; nullptr when absent.
  [[nodiscard]] const ScenarioResult* result(std::string_view name) const;
  [[nodiscard]] std::size_t num_scenarios() const { return scenarios_.size(); }
  /// The cached trace backing the sweep (empty until the first run()).
  /// Exposes memory_use()/event_count() plus the out-of-core surface
  /// (spilled_bytes()/num_segments()).
  [[nodiscard]] const trace::SpillingTraceStore& store() const { return store_; }

 private:
  trace::TraceSource* base_;  ///< captured on the first run(); may be null
  SweepOptions options_;
  trace::SpillingTraceStore store_;
  std::vector<Scenario> scenarios_;
  std::vector<ScenarioResult> results_;
  /// One spill per scenario (parallel to results_); owned here because
  /// post-run queries read the sealed images through each result ledger's
  /// account_spill().
  std::vector<std::shared_ptr<energy::AccountSpill>> account_spills_;
};

}  // namespace wildenergy::core

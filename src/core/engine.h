// The one execution engine behind StudyPipeline (one scenario) and
// SweepEngine (K scenarios). DESIGN.md §7 describes it in full.
//
// Work is one task per user, in stream order. A user task holds one private
// shard chain per scenario — clones of every parent sink behind a fresh
// attributor, optional policy filter, and interface filter — and a worker
// replays the user once (TraceSource::emit_user) into an engine-private
// fan-out that hands each decoded batch to every chain, in scenario order,
// each under its own metrics registry. A chain that throws keeps what it
// threw and is fed nothing more; the others run on. Chains merge back into
// their scenario's parents in user order, so every output is bit-identical
// at any thread count (trace/shardable.h).
//
// A util::OrderedWindow schedules the user tasks. At most W = 2 × threads
// tasks are in flight, clamped to [1, users], so at most W × S chains are
// alive for S scenarios. The calling thread builds every chain serially —
// a task's chains in scenario order (policy factories and clone_shard()
// need not be thread-safe, and fault::FaultPlan arming does not depend on
// thread timing); workers only replay. The calling thread settles the
// window's front task one chain per scenario, in scenario order: retries
// (a failed chain is rebuilt and replayed alone), merge_from, the fold
// round, and the ShardRunStats row. W = 1 (one thread) runs each task
// inline and starts no thread.
//
// Every merged user folds (DESIGN.md §15): its rows move from the parents'
// pending state into their aggregates and its detail into the scenario's
// AccountSpill. Folds must run in ascending user order, so a source whose
// users arrive in ascending order folds each user right after its merge;
// any other source keeps merged users pending and folds them, ascending,
// when the run closes.
//
// Forward-only sources (the CSV reader) feed the same fan-out and merge
// path at W = 1: a per-user splitter on the reading thread opens a user task
// at each user bracket and settles it when the bracket closes. Their user
// order is unknown until the stream ends, so they always take the deferred
// folds.
//
// Checkpoints (src/ckpt/) fire every checkpoint_every_users settled user
// tasks and once more before the run closes; each snapshot covers every
// scenario and one completed-user list. One writer and one restore path
// serve both façades.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/sweep.h"
#include "energy/account_file.h"
#include "energy/attributor.h"
#include "obs/run_stats.h"
#include "trace/sink.h"
#include "trace/trace_source.h"
#include "util/status.h"

namespace wildenergy::core::internal {

/// One scenario as the engine runs it. The façade owns every pointer; they
/// must outlive run_scenarios().
struct EngineScenario {
  std::string name;
  /// Parent attributor: its radio factory and tail policy shape every shard
  /// chain, and the chains' attributors merge back into it.
  energy::EnergyAttributor* attributor = nullptr;
  PolicyFactory policy;  ///< may be empty (no policy stage)
  trace::Interface interface = trace::Interface::kCellular;
  /// Parent sinks in fan-out order, the energy::EnergyLedger first.
  std::vector<std::pair<std::string, trace::TraceSink*>> sinks;
  /// The scenario's account spill (DESIGN.md §15), not yet opened; never
  /// null. The engine opens it fresh or resumes it.
  energy::AccountSpill* spill = nullptr;
  /// This scenario's results: totals, counters, shard rows, stage profile.
  obs::RunStats* stats = nullptr;
};

/// Where a run's account spill keeps its sealed files (DESIGN.md §15):
/// `account_dir` when set, else `<checkpoint_dir>/accounts` so a
/// checkpointed run's detail is durable and its snapshots carry only
/// aggregates, else empty — in memory.
[[nodiscard]] std::string account_spill_dir(const RunOptions& options);

/// Run every scenario over `source`. Per-scenario results land in each
/// EngineScenario::stats; the returned RunStats carries the run-level
/// numbers (wall time, threads, users, totals summed over scenarios,
/// checkpoint and memory accounting). A source or spill error returns its
/// status; under FailurePolicy::kFailFast a throwing shard rethrows here.
/// `progress`, when set, is called on the calling thread as each
/// (scenario, user) chain settles. The engine resumes only from options.checkpoint_dir.
[[nodiscard]] util::StatusOr<obs::RunStats> run_scenarios(
    trace::TraceSource& source, std::vector<EngineScenario>& scenarios,
    const RunOptions& options, const std::function<void(const SweepProgress&)>& progress = {});

}  // namespace wildenergy::core::internal

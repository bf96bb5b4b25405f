#include "core/pipeline.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"

namespace wildenergy::core {

util::Status RunOptions::check() const {
  if (batch_size == 0) return util::Status::invalid_argument("batch_size must be at least 1");
  if (account_dir.empty() && account_budget_bytes != 0) {
    return util::Status::invalid_argument(
        "account budget requires an account directory (set account_dir)");
  }
  return util::Status::ok_status();
}

StudyPipeline::StudyPipeline(trace::TraceSource* source, PipelineOptions options)
    : source_(source),
      options_(std::move(options)),
      attributor_(options_.radio_factory, &downstream_, options_.tail_policy) {}

void StudyPipeline::add_analysis(trace::TraceSink* sink) {
  add_analysis("analysis " + std::to_string(analyses_.size()), sink);
}

void StudyPipeline::add_analysis(std::string name, trace::TraceSink* sink) {
  analyses_.emplace_back(std::move(name), sink);
}

void StudyPipeline::set_policy(PolicyFactory factory) { policy_factory_ = std::move(factory); }

util::StatusOr<obs::RunStats> StudyPipeline::run() {
  stats_ = {};
  off_interface_bytes_ = 0;  // repeated run() must not report a stale count
  if (util::Status checked = options_.check(); !checked.ok()) return checked;
  if (options_.resume && options_.checkpoint_dir.empty()) {
    return util::Status::invalid_argument(
        "resume requested without a checkpoint directory (set checkpoint_dir)");
  }
  // A fresh account spill per run (DESIGN.md §15).
  account_spill_ = std::make_shared<energy::AccountSpill>(energy::AccountSpill::Options{
      internal::account_spill_dir(options_), options_.account_budget_bytes});

  // One scenario of the execution engine; the ledger leads the fan-out.
  std::vector<internal::EngineScenario> scenario(1);
  scenario[0].attributor = &attributor_;
  scenario[0].policy = policy_factory_;
  scenario[0].interface = options_.interface;
  scenario[0].sinks.emplace_back("ledger", &ledger_);
  scenario[0].sinks.insert(scenario[0].sinks.end(), analyses_.begin(), analyses_.end());
  scenario[0].spill = account_spill_.get();
  scenario[0].stats = &stats_;

  const auto run = internal::run_scenarios(*source_, scenario, options_);
  if (!run.ok()) return run.status();

  // Run-level numbers the engine keeps outside the scenario.
  stats_.wall_ms = run->wall_ms;
  stats_.checkpoints_written = run->checkpoints_written;
  stats_.checkpoint_bytes = run->checkpoint_bytes;
  stats_.checkpoint_write_failures = run->checkpoint_write_failures;
  stats_.resumed_users = run->resumed_users;
  stats_.recovered_from_seq = run->recovered_from_seq;
  stats_.memory.shards = run->memory.shards;
  stats_.memory.rss_anon_bytes = run->memory.rss_anon_bytes;
  stats_.memory.rss_file_bytes = run->memory.rss_file_bytes;
  off_interface_bytes_ = stats_.off_interface_bytes;
  return stats_;
}

}  // namespace wildenergy::core

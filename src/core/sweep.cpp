#include "core/sweep.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "obs/memory.h"
#include "obs/stopwatch.h"

namespace wildenergy::core {

SweepEngine::SweepEngine(trace::TraceSource* base, SweepOptions options)
    : base_(base),
      options_(std::move(options)),
      store_({.dir = options_.store_dir,
              .budget_bytes = options_.store_budget_bytes,
              .resume = options_.resume}) {}

void SweepEngine::add_scenario(Scenario scenario) {
  scenarios_.push_back(std::move(scenario));
}

const ScenarioResult* SweepEngine::result(std::string_view name) const {
  for (const auto& r : results_) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

util::StatusOr<obs::RunStats> SweepEngine::run() {
  if (util::Status checked = options_.check(); !checked.ok()) return checked;
  if (options_.resume && options_.checkpoint_dir.empty() && options_.store_dir.empty()) {
    return util::Status::invalid_argument(
        "resume requested without a checkpoint or store directory (set checkpoint_dir or "
        "store_dir)");
  }
  const obs::Stopwatch total;
  double capture_ms = 0.0;
  std::uint64_t capture_peak_rss = 0;
  if (store_.empty()) {  // simulate once
    if (base_ == nullptr) {
      return util::Status::failed_precondition(
          "sweep store is empty and no base source was given");
    }
    // The sweep's threads are idle until the capture ends: they parse the
    // source (a CSV source's workers) and one seals segments while the
    // calling thread appends what the source emits.
    if (const util::Status captured =
            store_.capture(*base_, options_.batch_size, options_.num_threads);
        !captured.ok()) {
      return captured;
    }
    capture_ms = total.elapsed_ms();
    capture_peak_rss = obs::peak_rss_bytes();
  }

  // Results are rebuilt per run; their ledgers are the parents the shard
  // clones merge into, so the vector must not reallocate once the engine
  // holds pointers to them — size it up front.
  const std::size_t num_scenarios = scenarios_.size();
  results_.clear();
  results_.resize(num_scenarios);
  account_spills_.clear();
  // Per-scenario parent attributors fold the attribution counters in the
  // order a standalone pipeline would; nothing listens downstream of them.
  trace::TraceMulticast no_downstream;
  std::vector<std::unique_ptr<energy::EnergyAttributor>> attributors;
  std::vector<internal::EngineScenario> plan(num_scenarios);
  for (std::size_t si = 0; si < num_scenarios; ++si) {
    const Scenario& scenario = scenarios_[si];
    ScenarioResult& res = results_[si];
    res.name = scenario.name;
    attributors.push_back(std::make_unique<energy::EnergyAttributor>(
        scenario.radio_factory, &no_downstream, scenario.tail_policy));
    // One spill per scenario, under an index-named subdirectory (scenario
    // names are user strings, not filesystem-safe), or in memory.
    std::string account_dir = internal::account_spill_dir(options_);
    if (!account_dir.empty()) account_dir += "/s" + std::to_string(si);
    account_spills_.push_back(std::make_shared<energy::AccountSpill>(
        energy::AccountSpill::Options{std::move(account_dir), options_.account_budget_bytes}));
    plan[si].name = scenario.name;
    plan[si].attributor = attributors.back().get();
    plan[si].policy = scenario.policy;
    plan[si].interface = scenario.interface;
    plan[si].sinks.emplace_back("ledger", &res.ledger);
    plan[si].sinks.insert(plan[si].sinks.end(), scenario.analyses.begin(),
                          scenario.analyses.end());
    plan[si].spill = account_spills_.back().get();
    plan[si].stats = &res.stats;
  }

  auto run = internal::run_scenarios(store_, plan, options_, options_.progress);
  if (!run.ok()) return run.status();
  run->wall_ms = total.elapsed_ms();
  run->capture_ms = capture_ms;
  if (capture_ms > 0.0) {
    run->capture_seal_ms = store_.capture_seal_ms();
    run->capture_wait_ms = store_.capture_wait_ms();
    run->capture_parse_ms = base_->emit_worker_ms();
    run->capture_peak_rss_bytes = capture_peak_rss;
  }
  return run;
}

}  // namespace wildenergy::core

#include "core/engine.h"

#include <algorithm>
#include <array>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpointable.h"
#include "energy/ledger.h"
#include "fault/plan.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "trace/batch.h"
#include "trace/instrumented_sink.h"
#include "trace/interface_filter.h"
#include "trace/shardable.h"
#include "trace/spilling_store.h"
#include "util/ordered_window.h"

namespace wildenergy::core::internal {
namespace {

/// Radio counters summed from the chains' registries. Every radio mutation
/// of a run happens under a chain-scoped registry, so the sum is the run's
/// delta — and unlike a global delta, it restores from a checkpoint.
constexpr std::array<const char*, 4> kRadioCounters = {
    "radio.bursts", "radio.bursts_queued", "radio.promotions", "radio.repromotions"};

/// One task's private sink chain. Heap-allocated: the filter and attributor
/// hold pointers into it, so it must not move.
struct ShardChain {
  obs::MetricsRegistry registry;  ///< chain-local radio/ingest counters
  trace::TraceMulticast fanout;
  std::vector<std::unique_ptr<trace::TraceSink>> clones;  ///< parallel to Plan::shardable
  std::unique_ptr<energy::EnergyAttributor> attributor;
  std::unique_ptr<trace::TraceSink> policy;
  std::unique_ptr<trace::InterfaceFilter> filter;
  std::unique_ptr<trace::TraceSink> fault;  ///< FaultPlan decorator, if any
  trace::TraceSink* entry = nullptr;
  /// Stage profiling: every stage wrapped in an InstrumentedSink on this
  /// chain's own PhaseStack. Built sinks first, then attribute, policy,
  /// filter.
  obs::PhaseStack phase_stack;
  std::vector<std::unique_ptr<trace::InstrumentedSink>> wrappers;

  /// Display order — filter, policy, attribute, then the sinks — the same
  /// shape for every chain of a scenario, so stage i folds with stage i.
  [[nodiscard]] std::vector<obs::StageStats> stage_stats(std::size_t num_sinks) const {
    std::vector<obs::StageStats> out;
    for (std::size_t i = wrappers.size(); i > num_sinks; --i) {
      out.push_back(wrappers[i - 1]->stats());
    }
    for (std::size_t i = 0; i < num_sinks && i < wrappers.size(); ++i) {
      out.push_back(wrappers[i]->stats());
    }
    return out;
  }
  [[nodiscard]] std::uint64_t resident_bytes() const {
    std::uint64_t total = attributor->memory_use().resident_bytes;
    for (const auto& clone : clones) total += clone->memory_use().resident_bytes;
    return total;
  }
};

/// Shardability adapter for a custom sink that does not implement
/// trace::ShardableSink: the parent forwards the study bracket to the wrapped
/// sink, each clone records its one user's annotated stream, and merge_from
/// hands the recording to the wrapped sink as one whole-user batch. Merges
/// arrive in stream order, so the wrapped sink sees the exact surviving-user
/// study a serial pass would feed it. Counted in
/// RunStats::serial_fallback_sinks.
class CollectSpliceSink final : public trace::TraceSink, public trace::ShardableSink {
 public:
  explicit CollectSpliceSink(trace::TraceSink* target) : target_(target) {}

  void on_study_begin(const trace::StudyMeta& meta) override {
    if (target_ != nullptr) target_->on_study_begin(meta);
  }
  void on_study_end() override {
    if (target_ != nullptr) target_->on_study_end();
  }
  void on_user_begin(trace::UserId user) override { events_.user = user; }
  void on_batch(const trace::EventBatch& batch) override { events_.append(batch); }

  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override {
    return std::make_unique<CollectSpliceSink>(nullptr);
  }
  void merge_from(trace::TraceSink& shard) override {
    auto& other = dynamic_cast<CollectSpliceSink&>(shard);
    const trace::UserId user = other.events_.user;
    target_->on_user_begin(user);
    if (!other.events_.empty()) target_->on_batch(other.events_);
    target_->on_user_end(user);
    other.events_.clear();
  }

  [[nodiscard]] obs::MemoryUse memory_use() const override {
    return {.resident_bytes = events_.packets.capacity() * sizeof(trace::PacketRecord) +
                              events_.transitions.capacity() * sizeof(trace::StateTransition) +
                              events_.order.capacity() * sizeof(trace::EventKind),
            .spilled_bytes = 0};
  }

 private:
  trace::TraceSink* target_;  ///< null in recording clones
  trace::EventBatch events_;
};

/// One scenario's chain inside a user task, and its settle record.
struct Lane {
  std::size_t scenario = 0;
  std::unique_ptr<ShardChain> chain;
  unsigned attempts = 0;
  /// Time this lane cost: its chain's callbacks, plus — for a task's first
  /// lane — the shared decode, plus every retry's whole replay.
  double wall_ms = 0.0;
  std::int64_t span_start_us = 0;  ///< its latest replay, for the shard span
  double span_ms = 0.0;
  std::uint64_t chain_bytes = 0;  ///< chain footprint once its stream finished
  util::Status error;             ///< non-OK while the latest attempt has failed
  std::exception_ptr thrown;      ///< what the latest attempt threw, if anything
};

/// One user's task: one lane per scenario, fed by one replay of the user.
struct Task {
  trace::UserId user = 0;
  unsigned worker = 0;
  std::vector<Lane> lanes;  ///< scenario order
};

/// One replay of a user through some of its task's lanes: hands each
/// callback to every lane's chain, in scenario order, each under its own
/// metrics registry and stopwatch. A chain that throws keeps what it threw
/// and is fed nothing more; the other chains run on. finish() closes the
/// replay: every lane records its span and footprint, and the wall no chain
/// spent — the decode — is charged to the first lane.
class LaneFanout final : public trace::TraceSink {
 public:
  LaneFanout(std::span<Lane> lanes, obs::TraceWriter* writer)
      : lanes_(lanes), start_us_(writer != nullptr ? writer->now_us() : 0) {
    for (Lane& lane : lanes_) {
      ++lane.attempts;
      chains_before_ms_ += lane.wall_ms;
    }
  }

  void on_study_begin(const trace::StudyMeta& meta) override {
    each([&meta](trace::TraceSink& s) { s.on_study_begin(meta); });
  }
  void on_user_begin(trace::UserId user) override {
    each([user](trace::TraceSink& s) { s.on_user_begin(user); });
  }
  void on_batch(const trace::EventBatch& batch) override {
    each([&batch](trace::TraceSink& s) { s.on_batch(batch); });
  }
  void on_user_end(trace::UserId user) override {
    each([user](trace::TraceSink& s) { s.on_user_end(user); });
  }
  void on_study_end() override {
    each([](trace::TraceSink& s) { s.on_study_end(); });
  }

  void finish() {
    const double wall_ms = ms_since(start_ns_);
    double chains_ms = -chains_before_ms_;
    for (Lane& lane : lanes_) {
      chains_ms += lane.wall_ms;
      lane.span_start_us = start_us_;
      lane.span_ms = wall_ms;
      if (!lane.thrown) lane.chain_bytes = lane.chain->resident_bytes();
    }
    if (!lanes_.empty()) lanes_.front().wall_ms += std::max(0.0, wall_ms - chains_ms);
  }

 private:
  template <typename Call>
  void each(const Call& call) {
    for (Lane& lane : lanes_) {
      if (lane.thrown) continue;
      // Chain-local metrics: the radio model built in on_user_begin resolves
      // its counters from current(), i.e. this chain's registry.
      const obs::ScopedMetricsRegistry scoped{&lane.chain->registry};
      const std::int64_t start_ns = obs::PhaseStack::steady_now_ns();
      try {
        call(*lane.chain->entry);
      } catch (...) {
        lane.thrown = std::current_exception();
      }
      lane.wall_ms += ms_since(start_ns);
    }
  }

  // Nanosecond reads: a callback can take less than the microsecond an
  // obs::Stopwatch resolves.
  static double ms_since(std::int64_t start_ns) {
    return static_cast<double>(obs::PhaseStack::steady_now_ns() - start_ns) / 1e6;
  }

  std::span<Lane> lanes_;
  const std::int64_t start_us_;
  double chains_before_ms_ = 0.0;  ///< the lanes' wall before this replay
  const std::int64_t start_ns_ = obs::PhaseStack::steady_now_ns();
};

/// One scenario's run state.
struct Plan {
  EngineScenario* sc = nullptr;
  std::vector<std::unique_ptr<CollectSpliceSink>> adapters;
  std::vector<trace::ShardableSink*> shardable;  ///< parallel to sc->sinks
  std::vector<trace::TraceSink*> parents;        ///< each sink, or its adapter
  std::vector<trace::UserId> unfolded;   ///< merged users whose fold waits for close
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::array<std::uint64_t, kRadioCounters.size()> radio{};
  std::vector<obs::StageStats> stages;  ///< per-chain profiles, folded in merge order
  double source_ms = 0.0;               ///< per-lane wall the stages did not account for
};

std::string prefix(std::size_t scenario) { return "s" + std::to_string(scenario) + "."; }

/// Fold `from` into `into` by stage name. A stage `into` lacks (a policy)
/// goes in after the stage `from` lists before it, so display order holds.
void merge_stages(std::vector<obs::StageStats>& into, const std::vector<obs::StageStats>& from) {
  auto at = into.begin();
  for (const obs::StageStats& stage : from) {
    const auto it = std::find_if(into.begin(), into.end(), [&stage](const obs::StageStats& s) {
      return s.name == stage.name;
    });
    if (it == into.end()) {
      at = into.insert(at, stage) + 1;
    } else {
      it->merge_from(stage);
      at = it + 1;
    }
  }
}

void add_to_aggregate(obs::RunStats& aggregate, const obs::RunStats& s) {
  aggregate.packets += s.packets;
  aggregate.transitions += s.transitions;
  aggregate.bytes += s.bytes;
  aggregate.joules += s.joules;
  aggregate.off_interface_packets += s.off_interface_packets;
  aggregate.off_interface_bytes += s.off_interface_bytes;
  aggregate.shard_retries += s.shard_retries;
  aggregate.serial_fallback_sinks += s.serial_fallback_sinks;
  aggregate.radio_bursts += s.radio_bursts;
  aggregate.radio_bursts_queued += s.radio_bursts_queued;
  aggregate.radio_promotions += s.radio_promotions;
  aggregate.radio_repromotions += s.radio_repromotions;
  aggregate.memory.ledger += s.memory.ledger;
  aggregate.memory.analyses += s.memory.analyses;
  aggregate.memory.accounts += s.memory.accounts;
  aggregate.timed = s.timed;
  merge_stages(aggregate.stages, s.stages);
  aggregate.shards.insert(aggregate.shards.end(), s.shards.begin(), s.shards.end());
}

class Engine {
 public:
  Engine(trace::TraceSource& source, std::vector<EngineScenario>& scenarios,
         const RunOptions& options, const std::function<void(const SweepProgress&)>& progress)
      : source_(source),
        store_(dynamic_cast<const trace::SpillingTraceStore*>(&source)),
        scenarios_(scenarios),
        opt_(options),
        progress_(progress),
        random_access_(source.supports_user_access()),
        retry_then_skip_(options.failure_policy == FailurePolicy::kRetryThenSkip),
        timed_(options.collect_stage_stats || options.trace_writer != nullptr),
        // Forward-only sources take no scripted shard faults: a chain cannot
        // be rebuilt for a stream that has already gone by.
        fault_plan_(random_access_ ? options.fault_plan : nullptr) {}

  util::StatusOr<obs::RunStats> run();

  // -- stream hooks, for the forward-only splitter --------------------------
  util::Status open(const trace::StudyMeta& meta);
  [[nodiscard]] bool covered(trace::UserId user) const {
    return std::binary_search(done_.begin(), done_.end(), user);
  }
  std::unique_ptr<Task> make_task(trace::UserId user);
  util::Status settle(Task& task);
  void note_window(std::uint64_t bytes) { window_bytes_ = std::max(window_bytes_, bytes); }
  [[nodiscard]] const trace::StudyMeta& meta() const { return meta_; }

 private:
  util::Status prepare();
  util::Status restore(const ckpt::Snapshot& snap);
  util::Status run_window();
  std::unique_ptr<ShardChain> make_chain(std::size_t scenario, trace::UserId user);
  /// One replay of `user` through every lane of `lanes`.
  void replay(trace::UserId user, std::span<Lane> lanes) const;
  void absorb(Lane& lane) const;
  util::Status settle_lane(Task& task, std::size_t index);
  void merge(Plan& plan, trace::UserId user, Lane& lane, obs::ShardRunStats& row);
  /// One fold round: `user`'s rows leave every parent for the spill.
  void fold(Plan& plan, trace::UserId user);
  util::Status close();
  void write_snapshot();
  [[nodiscard]] std::size_t num_users() const {
    return random_access_ ? user_ids_.size() : meta_.num_users;
  }

  trace::TraceSource& source_;
  /// The source when it is a captured store (sweeps, pipelines over a store):
  /// replayed rather than generated, and its footprint counts in the run.
  const trace::SpillingTraceStore* const store_;
  std::vector<EngineScenario>& scenarios_;
  const RunOptions& opt_;
  const std::function<void(const SweepProgress&)>& progress_;
  const bool random_access_;
  /// Users arrive in ascending id order, so each folds right after its merge.
  bool fold_on_merge_ = false;
  const bool retry_then_skip_;
  const bool timed_;
  fault::FaultPlan* const fault_plan_;
  bool keep_rows_ = false;  ///< record a ShardRunStats row per lane
  unsigned threads_ = 1;    ///< worker threads actually used
  std::vector<Plan> plans_;
  trace::StudyMeta meta_;
  std::vector<trace::UserId> user_ids_;  ///< random-access sources only
  std::unique_ptr<ckpt::CheckpointWriter> writer_;
  std::optional<ckpt::Snapshot> resumed_;
  std::vector<trace::UserId> done_;       ///< sorted users a checkpoint covers
  std::vector<trace::UserId> completed_;  ///< users merged in some scenario, stream order
  std::size_t since_checkpoint_ = 0;      ///< user tasks settled since the last snapshot
  std::size_t total_lanes_ = 0;
  std::size_t merged_lanes_ = 0;
  std::uint64_t window_bytes_ = 0;  ///< high-water of finished, unmerged chains
  obs::RunStats run_;               ///< run-level resume accounting
};

/// The forward-only path: opens a user task at each user bracket on the
/// reading thread, fans the bracket's events out to its lanes, and settles
/// it when the bracket closes — the same merge path as the window, at W = 1.
class UserSplitter final : public trace::TraceSink {
 public:
  UserSplitter(Engine& engine, obs::TraceWriter* writer) : engine_(engine), writer_(writer) {}

  [[nodiscard]] const util::Status& status() const { return status_; }
  [[nodiscard]] bool opened() const { return opened_; }

  void on_study_begin(const trace::StudyMeta& meta) override {
    opened_ = true;
    status_ = engine_.open(meta);
  }
  void on_user_begin(trace::UserId user) override {
    if (!status_.ok() || engine_.covered(user)) return;  // a checkpoint covers the user
    task_ = engine_.make_task(user);
    fanout_.emplace(task_->lanes, writer_);
    fanout_->on_study_begin(engine_.meta());
    fanout_->on_user_begin(user);
  }
  void on_batch(const trace::EventBatch& batch) override {
    if (task_) fanout_->on_batch(batch);
  }
  void on_user_end(trace::UserId user) override {
    if (!task_) return;
    fanout_->on_user_end(user);
    fanout_->on_study_end();
    fanout_->finish();
    fanout_.reset();
    std::uint64_t bytes = 0;
    for (const Lane& lane : task_->lanes) bytes += lane.chain_bytes;
    engine_.note_window(bytes);
    status_ = engine_.settle(*task_);
    task_.reset();
  }
  void on_study_end() override {}

 private:
  Engine& engine_;
  obs::TraceWriter* const writer_;
  util::Status status_;
  bool opened_ = false;
  std::unique_ptr<Task> task_;
  std::optional<LaneFanout> fanout_;  ///< reset before task_
};

util::Status Engine::prepare() {
  const bool checkpointing = !opt_.checkpoint_dir.empty();
  plans_.resize(scenarios_.size());
  for (std::size_t si = 0; si < plans_.size(); ++si) {
    Plan& plan = plans_[si];
    plan.sc = &scenarios_[si];
    *plan.sc->stats = {};
    for (const auto& [name, sink] : plan.sc->sinks) {
      // Checkpoints serialize every sink; one without save/restore would be
      // silently absent from the snapshot, so refuse up front, naming it.
      if (checkpointing && ckpt::as_checkpointable(sink) == nullptr) {
        return util::Status::failed_precondition(
            "sink '" + name + "'" +
            (plan.sc->name.empty() ? "" : " of scenario '" + plan.sc->name + "'") +
            " does not implement ckpt::CheckpointableSink; checkpointing would lose its "
            "state — drop the sink or implement save_state/restore_state");
      }
      if (auto* s = trace::as_shardable(sink)) {
        plan.shardable.push_back(s);
        plan.parents.push_back(sink);
      } else {
        plan.adapters.push_back(std::make_unique<CollectSpliceSink>(sink));
        plan.shardable.push_back(plan.adapters.back().get());
        plan.parents.push_back(plan.adapters.back().get());
      }
    }
    plan.sc->stats->serial_fallback_sinks = plan.adapters.size();
    // Arm every sink with this run's spill before any study bracket opens.
    plan.sc->attributor->set_account_spill(plan.sc->spill);
    for (auto* s : plan.shardable) s->set_account_spill(plan.sc->spill);
  }
  if (!checkpointing) return util::Status::ok_status();
  ckpt::CheckpointWriterOptions writer_options;
  writer_options.fault_plan = opt_.fault_plan;
  writer_ = std::make_unique<ckpt::CheckpointWriter>(opt_.checkpoint_dir, writer_options);
  if (!opt_.resume) return util::Status::ok_status();
  auto loaded = ckpt::CheckpointReader::load_latest(opt_.checkpoint_dir);
  if (!loaded.ok()) return loaded.status();
  writer_->set_next_seq(loaded->seq + 1);
  run_.recovered_from_seq = loaded->recovered_from_seq;
  resumed_ = std::move(loaded->snapshot);
  return util::Status::ok_status();
}

util::Status Engine::open(const trace::StudyMeta& meta) {
  meta_ = meta;
  if (resumed_) {
    if (util::Status st = ckpt::check_snapshot_meta(*resumed_, meta); !st.ok()) return st;
  }
  // Parents open their study bracket once; merges then stack users on top
  // in stream order, and a resume folds the snapshot's partials in first.
  for (Plan& plan : plans_) {
    plan.sc->attributor->on_study_begin(meta);
    for (auto* parent : plan.parents) parent->on_study_begin(meta);
  }
  if (resumed_) {
    if (util::Status st = restore(*resumed_); !st.ok()) return st;
  }
  if (random_access_) total_lanes_ = plans_.size() * (num_users() - done_.size());
  for (std::size_t si = 0; si < plans_.size(); ++si) {
    // Keep the account-file prefix the checkpoint vouches for; later files
    // hold rows of users the resume re-runs (they respill).
    energy::AccountSpill& spill = *plans_[si].sc->spill;
    util::Status st = resumed_ ? spill.resume(resumed_->counter(prefix(si) + "account_sealed_files"))
                               : spill.open_fresh();
    if (!st.ok()) return st;
  }
  return util::Status::ok_status();
}

util::Status Engine::restore(const ckpt::Snapshot& snap) {
  const auto restore_section = [&snap](const std::string& name,
                                       ckpt::CheckpointableSink& sink) -> util::Status {
    const std::string* payload = snap.section(name);
    if (payload == nullptr) {
      return util::Status::failed_precondition(
          "checkpoint holds no section '" + name + "' — it was taken under a different sink set");
    }
    ckpt::ByteReader in{*payload};
    if (util::Status st = sink.restore_state(in); !st.ok()) {
      return {st.code(), "section '" + name + "': " + st.message()};
    }
    if (!in.at_end()) {
      return util::Status::data_loss("section '" + name + "': " + std::to_string(in.remaining()) +
                                     " trailing bytes in checkpoint");
    }
    return util::Status::ok_status();
  };
  if (snap.section(prefix(plans_.size()) + "scenario") != nullptr) {
    return util::Status::failed_precondition(
        "checkpoint holds more than the " + std::to_string(plans_.size()) +
        " registered scenario(s) — the scenario list changed");
  }
  done_ = snap.completed_users;
  for (std::size_t si = 0; si < plans_.size(); ++si) {
    Plan& plan = plans_[si];
    const std::string p = prefix(si);
    const std::string* name = snap.section(p + "scenario");
    if (name == nullptr) {
      // Progress without the scenario's sections: not a snapshot this engine
      // wrote (e.g. one from before analyze ran on the engine).
      return util::Status::failed_precondition(
          "checkpoint lists " + std::to_string(snap.completed_users.size()) +
          " completed user(s) but holds no section '" + p +
          "scenario' — it was written in an older, unprefixed layout or under a shorter "
          "scenario list");
    }
    if (*name != plan.sc->name) {
      return util::Status::failed_precondition("checkpointed scenario '" + *name +
                                               "' does not match registered scenario '" +
                                               plan.sc->name + "' — the scenario list changed");
    }
    obs::RunStats& stats = *plan.sc->stats;
    stats.shard_retries = snap.counter(p + "shard_retries");
    plan.dropped_packets = snap.counter(p + "off_interface_packets");
    plan.dropped_bytes = snap.counter(p + "off_interface_bytes");
    for (std::size_t r = 0; r < kRadioCounters.size(); ++r) {
      plan.radio[r] = snap.counter(p + kRadioCounters[r]);
    }
    if (const std::string* failed = snap.section(p + "failed")) {
      ckpt::ByteReader peek{*failed};
      const auto count = peek.get_varint("failed users");
      if (!count.ok()) return count.status();
      if (*count > failed->size()) return util::Status::data_loss("corrupt failed-user list");
      stats.failed_users.resize(*count);
      ckpt::ByteReader in{*failed};
      if (util::Status st = in.get_u64_span(stats.failed_users, "failed users"); !st.ok()) {
        return st;
      }
    }
    if (util::Status st = restore_section(p + "attributor", *plan.sc->attributor); !st.ok()) {
      return st;
    }
    for (const auto& [sink_name, sink] : plan.sc->sinks) {
      if (util::Status st = restore_section(p + sink_name, *ckpt::as_checkpointable(sink));
          !st.ok()) {
        return st;
      }
    }
    // Deferred folds: the users this scenario merged are still pending in
    // its sinks — every completed user it did not skip.
    if (!fold_on_merge_) {
      std::vector<std::uint64_t> skipped = stats.failed_users;
      std::sort(skipped.begin(), skipped.end());
      for (const trace::UserId user : snap.completed_users) {
        if (!std::binary_search(skipped.begin(), skipped.end(), user)) {
          plan.unfolded.push_back(user);
        }
      }
    }
    // A user every scenario skipped is settled without being completed.
    done_.insert(done_.end(), stats.failed_users.begin(), stats.failed_users.end());
  }
  completed_ = snap.completed_users;
  std::sort(done_.begin(), done_.end());
  done_.erase(std::unique(done_.begin(), done_.end()), done_.end());
  run_.resumed_users = done_.size();
  return util::Status::ok_status();
}

std::unique_ptr<ShardChain> Engine::make_chain(std::size_t scenario, trace::UserId user) {
  const Plan& plan = plans_[scenario];
  auto built = std::make_unique<ShardChain>();
  ShardChain& chain = *built;
  const auto wrap = [&](std::string name, trace::TraceSink* sink) -> trace::TraceSink* {
    if (!timed_) return sink;
    chain.wrappers.push_back(
        std::make_unique<trace::InstrumentedSink>(std::move(name), sink, &chain.phase_stack));
    return chain.wrappers.back().get();
  };
  for (std::size_t i = 0; i < plan.shardable.size(); ++i) {
    chain.clones.push_back(plan.shardable[i]->clone_shard());
    chain.fanout.add(wrap(plan.sc->sinks[i].first, chain.clones.back().get()));
  }
  chain.attributor = plan.sc->attributor->clone_shard(&chain.fanout);
  trace::TraceSink* head = wrap("attribute", chain.attributor.get());
  if (plan.sc->policy) {
    chain.policy = plan.sc->policy(head);
    head = wrap("policy", chain.policy.get());
  }
  chain.filter = std::make_unique<trace::InterfaceFilter>(head, plan.sc->interface);
  chain.entry = wrap("filter", chain.filter.get());
  if (fault_plan_ != nullptr) {
    // wrap() counts one attempt per build, so a retry's rebuild re-arms or
    // disarms the fault deterministically. It sits above the (possibly
    // instrumented) filter, so injected callbacks are profiled too.
    chain.fault = fault_plan_->wrap(user, chain.entry);
    if (chain.fault != nullptr) chain.entry = chain.fault.get();
  }
  return built;
}

// A user task builds its chains in scenario order, so fault-plan arming (one
// attempt per build) follows scenario order too.
std::unique_ptr<Task> Engine::make_task(trace::UserId user) {
  auto task = std::make_unique<Task>();
  task->user = user;
  task->lanes.resize(plans_.size());
  for (std::size_t si = 0; si < plans_.size(); ++si) {
    task->lanes[si].scenario = si;
    task->lanes[si].chain = make_chain(si, user);
  }
  return task;
}

void Engine::replay(trace::UserId user, std::span<Lane> lanes) const {
  LaneFanout fanout{lanes, opt_.trace_writer};
  util::Status status;
  try {
    status = source_.emit_user(user, fanout, opt_.batch_size);
  } catch (...) {  // the source itself threw: every lane's attempt failed
    for (Lane& lane : lanes) {
      if (!lane.thrown) lane.thrown = std::current_exception();
    }
  }
  for (Lane& lane : lanes) lane.error = status;
  fanout.finish();
}

// A throwing attempt propagates under kFailFast — rethrown here, on the
// calling thread, in task order — and becomes a failed status under
// kRetryThenSkip.
void Engine::absorb(Lane& lane) const {
  if (!lane.thrown) return;
  const std::exception_ptr thrown = std::exchange(lane.thrown, nullptr);
  if (!retry_then_skip_) std::rethrow_exception(thrown);
  try {
    std::rethrow_exception(thrown);
  } catch (const std::exception& e) {
    lane.error = util::Status::aborted(e.what());
  }
}

util::Status Engine::run_window() {
  const std::size_t users = user_ids_.size();
  const std::size_t capacity =
      opt_.num_threads <= 1
          ? 1
          : std::clamp<std::size_t>(2 * std::size_t{opt_.num_threads}, 1,
                                    std::max<std::size_t>(users, 1));
  // A window of one task runs it inline, as one thread does.
  util::OrderedWindow<std::unique_ptr<Task>> window{
      capacity > 1 ? opt_.num_threads : 1, capacity,
      [this](std::unique_ptr<Task>& task, unsigned worker) {
        task->worker = worker;
        replay(task->user, task->lanes);
      }};
  threads_ = std::max(1u, window.workers());
  keep_rows_ =
      threads_ > 1 || retry_then_skip_ || (fault_plan_ != nullptr && !fault_plan_->empty());

  std::size_t next = 0;  // user cursor, skipping the users a checkpoint covers
  for (;;) {
    while (!window.full() && !plans_.empty() && next < users) {
      const trace::UserId user = user_ids_[next++];
      if (covered(user)) continue;
      window.next() = make_task(user);
      window.push();
    }
    if (window.empty()) break;
    std::unique_ptr<Task>& front = window.front();
    std::uint64_t bytes = 0;
    window.visit([&bytes](const std::unique_ptr<Task>& t, bool done) {
      for (const Lane& lane : t->lanes) bytes += done ? lane.chain_bytes : 0;
    });
    note_window(bytes);
    if (util::Status st = settle(*front); !st.ok()) return st;
    front.reset();  // the merged chains' memory goes back before the next build
    window.pop();
  }
  return util::Status::ok_status();
}

// Lanes settle in scenario order, then the task counts toward the next
// snapshot, which therefore always covers whole users.
util::Status Engine::settle(Task& task) {
  bool merged = false;
  for (std::size_t i = 0; i < task.lanes.size(); ++i) {
    if (util::Status st = settle_lane(task, i); !st.ok()) return st;
    merged = merged || task.lanes[i].error.ok();
  }
  if (writer_ == nullptr) return util::Status::ok_status();
  if (merged) completed_.push_back(task.user);
  if (++since_checkpoint_ >= std::max<std::size_t>(1, opt_.checkpoint_every_users)) {
    write_snapshot();
    since_checkpoint_ = 0;
  }
  return util::Status::ok_status();
}

util::Status Engine::settle_lane(Task& task, std::size_t index) {
  Lane& lane = task.lanes[index];
  Plan& plan = plans_[lane.scenario];
  obs::RunStats& stats = *plan.sc->stats;
  absorb(lane);
  if (!lane.error.ok() && !retry_then_skip_) return lane.error;  // the source failed
  // Retries run here, serially, each lane alone with its own replay: a fresh
  // build has no partial state, so a re-run is the same deterministic
  // computation. A forward-only stream cannot be replayed.
  for (unsigned retry = 0;
       random_access_ && !lane.error.ok() && retry < opt_.max_shard_retries; ++retry) {
    ++stats.shard_retries;
    lane.chain.reset();  // free the failed chain first: the window bound holds
    lane.chain = make_chain(lane.scenario, task.user);
    replay(task.user, {&lane, 1});
    absorb(lane);
  }
  obs::ShardRunStats row;
  row.user = task.user;
  row.worker = task.worker;
  row.wall_ms = lane.wall_ms;
  row.attempts = std::max(1u, lane.attempts);
  row.skipped = !lane.error.ok();
  row.status = lane.error;
  if (row.skipped) {
    stats.failed_users.push_back(task.user);  // nothing of the user survives here
  } else {
    merge(plan, task.user, lane, row);
  }
  if (keep_rows_) stats.shards.push_back(std::move(row));
  if (opt_.trace_writer != nullptr) {
    opt_.trace_writer->add_complete("user " + std::to_string(task.user), "shard",
                                    lane.span_start_us,
                                    static_cast<std::int64_t>(lane.span_ms * 1e3),
                                    1 + static_cast<int>(task.worker));
  }
  if (progress_) progress_({++merged_lanes_, total_lanes_, lane.scenario, task.user});
  return util::Status::ok_status();
}

void Engine::merge(Plan& plan, trace::UserId user, Lane& lane, obs::ShardRunStats& row) {
  ShardChain& chain = *lane.chain;
  // The ledger is sinks[0]; read its totals before merge_from empties it.
  const auto& ledger = dynamic_cast<const energy::EnergyLedger&>(*chain.clones[0]);
  row.packets = ledger.total_packets();
  row.bytes = ledger.total_bytes();
  row.joules = ledger.total_joules();
  plan.sc->attributor->merge_from(*chain.attributor);
  for (std::size_t i = 0; i < plan.shardable.size(); ++i) {
    plan.shardable[i]->merge_from(*chain.clones[i]);
  }
  if (fold_on_merge_) {
    fold(plan, user);
  } else {
    plan.unfolded.push_back(user);
  }
  plan.dropped_packets += chain.filter->dropped_packets();
  plan.dropped_bytes += chain.filter->dropped_bytes();
  for (std::size_t r = 0; r < kRadioCounters.size(); ++r) {
    plan.radio[r] += chain.registry.counter_value(kRadioCounters[r]);
  }
  obs::MetricsRegistry::global().merge_from(chain.registry);
  if (!timed_) return;
  const std::vector<obs::StageStats> stages = chain.stage_stats(plan.shardable.size());
  if (plan.stages.empty()) plan.stages.resize(stages.size());
  double accounted_ms = 0.0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    accounted_ms += stages[i].self_ms;
    plan.stages[i].merge_from(stages[i]);
  }
  plan.source_ms += std::max(0.0, lane.wall_ms - accounted_ms);
}

// Section order within a row group: attributor, ledger, analyses.
void Engine::fold(Plan& plan, trace::UserId user) {
  energy::AccountSpill& spill = *plan.sc->spill;
  spill.begin_user(user);
  plan.sc->attributor->fold_user(user);
  for (auto* s : plan.shardable) s->fold_user(user);
  spill.end_user();
}

// Every scenario closes once the last user task has settled.
util::Status Engine::close() {
  if (writer_ != nullptr && since_checkpoint_ > 0) {
    write_snapshot();  // the last stretch
    since_checkpoint_ = 0;
  }
  for (Plan& plan : plans_) {
    // Deferred folds run after the last snapshot, so no snapshot ever
    // records a user both pending and folded.
    std::sort(plan.unfolded.begin(), plan.unfolded.end());
    for (const trace::UserId user : plan.unfolded) fold(plan, user);
    plan.unfolded.clear();
    for (auto* parent : plan.parents) parent->on_study_end();
    obs::RunStats& s = *plan.sc->stats;
    const auto& ledger = dynamic_cast<const energy::EnergyLedger&>(*plan.sc->sinks[0].second);
    s.num_threads = threads_;
    s.users = num_users();
    s.packets = ledger.total_packets();
    s.bytes = ledger.total_bytes();
    s.joules = ledger.total_joules();
    s.off_interface_packets = plan.dropped_packets;
    s.off_interface_bytes = plan.dropped_bytes;
    const energy::AttributionCounters& ac = plan.sc->attributor->counters();
    s.transitions = ac.transitions;
    s.tail_attributions = ac.tail_attributions;
    s.proportional_splits = ac.proportional_splits;
    s.promotion_segments = ac.promotion_segments;
    s.transfer_segments = ac.transfer_segments;
    s.tail_segments = ac.tail_segments;
    s.drx_segments = ac.drx_segments;
    s.idle_segments = ac.idle_segments;
    s.radio_bursts = plan.radio[0];
    s.radio_bursts_queued = plan.radio[1];
    s.radio_promotions = plan.radio[2];
    s.radio_repromotions = plan.radio[3];
    s.memory.ledger = ledger.memory_use();
    for (std::size_t i = 1; i < plan.sc->sinks.size(); ++i) {
      s.memory.analyses += plan.sc->sinks[i].second->memory_use();
    }
    if (store_ != nullptr) s.memory.store = store_->memory_use();
    // Resident is read before the final seal so the number describes the
    // bounded pending-writer footprint the run held, not the post-seal zero.
    energy::AccountSpill& spill = *plan.sc->spill;
    s.memory.accounts.resident_bytes = spill.resident_bytes();
    if (util::Status st = spill.seal(); !st.ok()) return st;
    s.memory.accounts.spilled_bytes = spill.spilled_bytes();
    s.memory.peak_rss_bytes = obs::peak_rss_bytes();
  }
  return util::Status::ok_status();
}

// The one snapshot writer, called between user tasks. Every scenario saves
// its name, counters, failed users, and the state of its attributor and
// sinks under the "s<index>." prefix; the users merged in any scenario go in
// completed_users. A failed write is counted and the run continues; an
// injected hard stop throws here.
void Engine::write_snapshot() {
  ckpt::Snapshot snap;
  snap.meta = meta_;
  snap.completed_users = completed_;
  for (std::size_t si = 0; si < plans_.size(); ++si) {
    Plan& plan = plans_[si];
    const obs::RunStats& stats = *plan.sc->stats;
    const std::string p = prefix(si);
    snap.add_section(p + "scenario", plan.sc->name);
    snap.set_counter(p + "shard_retries", stats.shard_retries);
    snap.set_counter(p + "off_interface_packets", plan.dropped_packets);
    snap.set_counter(p + "off_interface_bytes", plan.dropped_bytes);
    for (std::size_t r = 0; r < kRadioCounters.size(); ++r) {
      snap.set_counter(p + kRadioCounters[r], plan.radio[r]);
    }
    // Seal BEFORE recording the counter: a resume keeps exactly the files
    // the snapshot vouches for. Failures latch into health().
    (void)plan.sc->spill->seal();
    snap.set_counter(p + "account_sealed_files", plan.sc->spill->sealed_files());
    ckpt::ByteWriter failed;
    failed.put_u64_span(stats.failed_users);
    snap.add_section(p + "failed", failed.take());
    ckpt::ByteWriter attributor;
    plan.sc->attributor->save_state(attributor);
    snap.add_section(p + "attributor", attributor.take());
    for (const auto& [name, sink] : plan.sc->sinks) {
      ckpt::ByteWriter out;
      ckpt::as_checkpointable(sink)->save_state(out);
      snap.add_section(p + name, out.take());
    }
  }
  (void)writer_->write(snap);
}

util::StatusOr<obs::RunStats> Engine::run() {
  const obs::Stopwatch total;
  if (util::Status st = prepare(); !st.ok()) return st;
  if (random_access_) {
    user_ids_ = source_.users();
    fold_on_merge_ = std::adjacent_find(user_ids_.begin(), user_ids_.end(),
                                        std::greater_equal<>()) == user_ids_.end();
    if (util::Status st = open(source_.meta()); !st.ok()) return st;
    if (util::Status st = run_window(); !st.ok()) return st;
  } else {
    UserSplitter splitter{*this, opt_.trace_writer};
    const util::Status emitted = source_.emit(splitter, opt_.batch_size, opt_.num_threads);
    if (!splitter.status().ok()) return splitter.status();
    if (!emitted.ok()) return emitted;
    if (!splitter.opened()) {
      if (util::Status st = open(source_.meta()); !st.ok()) return st;
    }
  }
  if (util::Status st = close(); !st.ok()) return st;

  obs::RunStats run = run_;
  run.wall_ms = total.elapsed_ms();
  run.num_threads = threads_;
  run.users = num_users();
  for (Plan& plan : plans_) {
    obs::RunStats& s = *plan.sc->stats;
    s.timed = timed_;
    if (timed_) {
      // The source row is each chain's wall its stages did not account for.
      // One thread running one scenario has the run's wall as its only
      // budget, so there the row absorbs everything else (builds, merges)
      // and the stage self times sum to the wall.
      obs::StageStats source_row;
      source_row.name = store_ != nullptr ? "replay" : "generate";
      source_row.self_ms = plan.source_ms;
      if (threads_ == 1 && plans_.size() == 1) {
        double accounted_ms = 0.0;
        for (const auto& st : plan.stages) accounted_ms += st.self_ms;
        source_row.self_ms = std::max(0.0, run.wall_ms - accounted_ms);
      }
      source_row.packets = s.packets + s.off_interface_packets;
      source_row.transitions = s.transitions;
      source_row.bytes = s.bytes + s.off_interface_bytes;
      s.stages.push_back(source_row);
      for (auto& st : plan.stages) s.stages.push_back(std::move(st));
    }
    add_to_aggregate(run, s);
  }
  if (store_ != nullptr) run.memory.store = store_->memory_use();
  run.memory.shards.resident_bytes = window_bytes_;
  run.memory.peak_rss_bytes = obs::peak_rss_bytes();
  const obs::RssSplit rss = obs::rss_split();
  run.memory.rss_anon_bytes = rss.anon_bytes;
  run.memory.rss_file_bytes = rss.file_bytes;
  if (writer_ != nullptr) {
    run.checkpoints_written = writer_->checkpoints_written();
    run.checkpoint_bytes = writer_->bytes_written();
    run.checkpoint_write_failures = writer_->write_failures();
  }
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("mem.ledger_bytes").set(static_cast<double>(run.memory.ledger.resident_bytes));
  reg.gauge("mem.analyses_bytes").set(static_cast<double>(run.memory.analyses.resident_bytes));
  reg.gauge("mem.store_bytes").set(static_cast<double>(run.memory.store.resident_bytes));
  reg.gauge("mem.store_spilled_bytes").set(static_cast<double>(run.memory.store.spilled_bytes));
  reg.gauge("mem.accounts_bytes").set(static_cast<double>(run.memory.accounts.resident_bytes));
  reg.gauge("mem.accounts_spilled_bytes")
      .set(static_cast<double>(run.memory.accounts.spilled_bytes));
  reg.gauge("mem.shards_bytes").set(static_cast<double>(run.memory.shards.resident_bytes));
  reg.gauge("mem.peak_rss_bytes").set(static_cast<double>(run.memory.peak_rss_bytes));
  if (obs::TraceWriter* writer = opt_.trace_writer) {
    const std::int64_t start_us = writer->now_us() - static_cast<std::int64_t>(run.wall_ms * 1e3);
    writer->set_track_name(0, "pipeline");
    for (unsigned w = 0; w < threads_; ++w) {
      writer->set_track_name(1 + static_cast<int>(w), "worker " + std::to_string(w));
    }
    writer->add_complete("run", "pipeline", start_us, static_cast<std::int64_t>(run.wall_ms * 1e3),
                         0);
  }
  return run;
}

}  // namespace

std::string account_spill_dir(const RunOptions& options) {
  if (!options.account_dir.empty()) return options.account_dir;
  if (!options.checkpoint_dir.empty()) return options.checkpoint_dir + "/accounts";
  return {};
}

util::StatusOr<obs::RunStats> run_scenarios(
    trace::TraceSource& source, std::vector<EngineScenario>& scenarios,
    const RunOptions& options, const std::function<void(const SweepProgress&)>& progress) {
  Engine engine{source, scenarios, options, progress};
  return engine.run();
}

}  // namespace wildenergy::core::internal

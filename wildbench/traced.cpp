// The traced run: the workload's chain rebuilt one layer at a time from each
// layer's public functions, serially, with a TimedSink in front of every
// stage and a scope around every direct layer call. Its output digest must
// equal the untraced run's — proof that it did the same work.
//
//   sim      StudyGenerator::emit_user, one user at a time
//   trace    CsvTraceSource::emit -> SpillingTraceStore capture + seal, then
//            SpillingTraceStore::emit_user per (scenario, user); InterfaceFilter
//   core     the core/policy.h filters (csv_sweep scenarios)
//   energy   EnergyAttributor, EnergyLedger, the account fold (AccountSpill +
//            fold_user) and the AccountCursor read-back
//   analysis each analysis sink's callbacks and fold_user
//   ckpt     snapshot encoding + CheckpointWriter::write
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>

#include "ckpt/checkpoint.h"
#include "energy/account_file.h"
#include "harness.h"
#include "obs/metrics.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "trace/csv_io.h"
#include "trace/interface_filter.h"
#include "trace/shardable.h"
#include "trace/spilling_store.h"
#include "tracer.h"

namespace wildbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
constexpr std::size_t kBatch = we::trace::kDefaultBatchSize;

namespace {

/// Radio counters live in the process-wide registry; the run reports deltas.
struct RadioCounters {
  std::uint64_t promotions = 0;
  std::uint64_t bursts_queued = 0;

  static RadioCounters take() {
    const auto& reg = we::obs::MetricsRegistry::global();
    return {reg.counter_value("radio.promotions"), reg.counter_value("radio.bursts_queued")};
  }
};

double per_s(double count, double ms) { return ms > 0.0 ? count / (ms / 1e3) : 0.0; }

/// What the traced run reports besides the tracer's layer totals.
struct TracedResult {
  double wall_ms = 0.0;
  std::map<std::string, double> metrics;
  std::string digest;
  std::vector<Check> checks;
};

void status_check(std::vector<Check>& checks, const std::string& name,
                  const we::util::Status& st) {
  checks.push_back({name, st.ok(), st.to_string()});
}

/// panel_ckpt and fleet_fold: generator -> filter -> attributor -> ledger +
/// analyses, with the account fold (fleet_fold) or checkpoints (panel_ckpt)
/// between users, as the serial engine runs them.
TracedResult traced_pipeline(const Spec& spec, Tracer& tracer) {
  namespace trace = we::trace;
  const bool fleet = spec.workload == Workload::kFleetFold;
  const fs::path out_dir = spec.dir / "traced";
  fs::remove_all(out_dir);
  fs::create_directories(out_dir);

  we::sim::StudyGenerator generator{spec.study()};
  const std::vector<trace::AppId> tracked = tracked_apps(generator.catalog());
  Analyses analyses{spec.workload, tracked};
  const auto sinks = analyses.sinks();

  we::energy::EnergyLedger ledger;
  trace::TraceMulticast fanout;
  TimedSink ledger_t{tracer, "energy.ledger", &ledger};
  fanout.add(&ledger_t);
  std::vector<std::unique_ptr<TimedSink>> analysis_t;
  std::vector<int> analysis_layers;
  for (const auto& [name, sink] : sinks) {
    analysis_t.push_back(std::make_unique<TimedSink>(tracer, "analysis." + name, sink));
    analysis_layers.push_back(tracer.layer("analysis." + name));
    fanout.add(analysis_t.back().get());
  }
  we::energy::EnergyAttributor attributor{we::radio::make_lte_model, &fanout};
  TimedSink attributor_t{tracer, "energy.attribute", &attributor};
  trace::InterfaceFilter filter{&attributor_t, trace::Interface::kCellular};
  TimedSink filter_t{tracer, "trace.filter", &filter};
  StudyBracketStrip strip{&filter_t};

  std::unique_ptr<we::energy::AccountSpill> spill;
  std::unique_ptr<we::ckpt::CheckpointWriter> writer;
  TracedResult r;
  if (fleet) {
    we::energy::AccountSpill::Options options;
    options.dir = (out_dir / "accounts").string();
    options.budget_bytes = kAccountBudgetBytes;
    spill = std::make_unique<we::energy::AccountSpill>(std::move(options));
    status_check(r.checks, "account_open", spill->open_fresh());
    attributor.set_account_spill(spill.get());
    ledger.set_account_spill(spill.get());
    for (const auto& [name, sink] : sinks) {
      trace::as_shardable(sink)->set_account_spill(spill.get());
    }
  } else {
    writer = std::make_unique<we::ckpt::CheckpointWriter>((out_dir / "ckpt").string());
  }

  const int sim = tracer.layer("sim");
  const int fold = tracer.layer("energy.account.fold");
  const int ckpt = tracer.layer("ckpt.write");
  const RadioCounters radio_before = RadioCounters::take();
  const trace::StudyMeta meta = generator.meta();
  std::vector<trace::UserId> completed;
  std::uint64_t max_account_resident = 0;
  we::util::Status emitted;

  const auto start = Clock::now();
  filter_t.on_study_begin(meta);
  const std::vector<trace::UserId> users = generator.users();
  for (const trace::UserId user : users) {
    {
      const Scope s{tracer, sim, true};
      emitted = generator.emit_user(user, strip, kBatch);
    }
    if (!emitted.ok()) break;
    completed.push_back(user);
    if (spill) {
      const Scope s{tracer, fold, true};
      spill->begin_user(user);
      attributor.fold_user(user);
      ledger.fold_user(user);
      for (std::size_t i = 0; i < sinks.size(); ++i) {
        const Scope a{tracer, analysis_layers[i]};
        trace::as_shardable(sinks[i].second)->fold_user(user);
      }
      spill->end_user();
      max_account_resident = std::max(max_account_resident, spill->resident_bytes());
    }
    if (writer && (completed.size() % kCheckpointEveryUsers == 0 || user == users.back())) {
      // The sharded engine's epoch-boundary snapshot: counters, then every
      // checkpointable sink's state as a named section.
      const Scope s{tracer, ckpt, true};
      we::ckpt::Snapshot snapshot;
      snapshot.meta = meta;
      snapshot.completed_users = completed;
      const RadioCounters radio_now = RadioCounters::take();
      snapshot.set_counter("off_interface_packets", filter.dropped_packets());
      snapshot.set_counter("off_interface_bytes", filter.dropped_bytes());
      snapshot.set_counter("shard_retries", 0);
      snapshot.set_counter("radio.promotions", radio_now.promotions - radio_before.promotions);
      snapshot.set_counter("radio.bursts_queued",
                           radio_now.bursts_queued - radio_before.bursts_queued);
      const auto save = [&snapshot](const std::string& name,
                                    const we::ckpt::CheckpointableSink& sink) {
        we::ckpt::ByteWriter out;
        sink.save_state(out);
        snapshot.add_section(name, out.take());
      };
      save("attributor", attributor);
      save("ledger", ledger);
      for (const auto& [name, sink] : sinks) save(name, *we::ckpt::as_checkpointable(sink));
      (void)writer->write(snapshot);  // failures are counted and checked below
    }
  }
  filter_t.on_study_end();
  if (spill) {
    const Scope s{tracer, fold, true};
    status_check(r.checks, "account_seal", spill->seal());
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  status_check(r.checks, "emit", emitted);
  const RadioCounters radio_after = RadioCounters::take();

  const double cursor_ms = check_ledger_rows(ledger, r.checks);
  check_energy_split(attributor, r.checks);
  Digest d;
  digest_ledger(ledger, d, r.checks);
  digest_outputs(analyses, attributor, tracked, d);
  r.digest = d.hex();

  auto& m = r.metrics;
  m["sim.events"] = static_cast<double>(filter_t.events());
  m["sim.pkts_per_s"] = per_s(static_cast<double>(filter_t.packets()), tracer.self_ms("sim"));
  m["energy.attribute.pkts_per_s"] =
      per_s(static_cast<double>(attributor_t.packets()), tracer.self_ms("energy.attribute"));
  m["radio.promotions"] = static_cast<double>(radio_after.promotions - radio_before.promotions);
  m["radio.bursts_queued"] =
      static_cast<double>(radio_after.bursts_queued - radio_before.bursts_queued);
  m["radio.tail_segments"] = static_cast<double>(attributor.counters().tail_segments);
  if (spill) {
    status_check(r.checks, "account_health", spill->health());
    m["energy.account.fold_ms"] = tracer.self_ms("energy.account.fold");
    m["energy.account.spilled_bytes_per_user"] =
        static_cast<double>(spill->spilled_bytes()) / std::max<double>(1.0, users.size());
    m["energy.account.resident_bytes"] = static_cast<double>(max_account_resident);
    m["energy.account.files"] = static_cast<double>(spill->sealed_files());
    m["energy.account.cursor_read_ms"] = cursor_ms;
  }
  if (writer) {
    r.checks.push_back({"ckpt_write_failures", writer->write_failures() == 0,
                        std::to_string(writer->write_failures()) + " failed"});
    m["ckpt.write_ms"] = tracer.self_ms("ckpt.write");
    m["ckpt.bytes"] = static_cast<double>(writer->bytes_written());
    m["ckpt.count"] = static_cast<double>(writer->checkpoints_written());
  }
  return r;
}

/// csv_sweep: CSV -> spilling store (capture + seal), then per scenario
/// store replay -> filter -> [policy] -> attributor -> ledger.
TracedResult traced_sweep(const Spec& spec, Tracer& tracer) {
  namespace trace = we::trace;
  const fs::path out_dir = spec.dir / "traced";
  fs::remove_all(out_dir);
  fs::create_directories(out_dir);
  TracedResult r;

  std::ifstream file{spec.csv_path(), std::ios::binary};
  trace::CsvTraceSource csv{file};
  trace::SpillOptions spill_options;
  spill_options.dir = (out_dir / "segments").string();
  spill_options.budget_bytes = kStoreBudgetBytes;
  trace::SpillingTraceStore store{std::move(spill_options)};
  TimedSink store_t{tracer, "trace.segment.write", &store};
  const int csv_layer = tracer.layer("trace.csv");
  const int write_layer = tracer.layer("trace.segment.write");
  const int replay_layer = tracer.layer("trace.segment.replay");
  const RadioCounters radio_before = RadioCounters::take();

  const auto start = Clock::now();
  {
    const Scope s{tracer, csv_layer, true};
    status_check(r.checks, "csv_emit", csv.emit(store_t, kBatch));
  }
  {
    const Scope s{tracer, write_layer, true};
    status_check(r.checks, "segment_seal", store.seal());
  }
  status_check(r.checks, "store_health", store.health());

  const trace::StudyMeta meta = store.meta();
  const std::vector<trace::UserId> users = store.users();
  std::vector<we::core::Scenario> scenarios = sweep_scenarios();
  std::vector<std::unique_ptr<we::energy::EnergyLedger>> ledgers;
  std::uint64_t replayed_events = 0;
  std::uint64_t attributed_packets = 0;
  std::uint64_t tail_segments = 0;
  for (const we::core::Scenario& scenario : scenarios) {
    ledgers.push_back(std::make_unique<we::energy::EnergyLedger>());
    TimedSink ledger_t{tracer, "energy.ledger", ledgers.back().get()};
    we::energy::EnergyAttributor attributor{
        scenario.radio_factory ? scenario.radio_factory : we::radio::make_lte_model, &ledger_t,
        scenario.tail_policy};
    TimedSink attributor_t{tracer, "energy.attribute", &attributor};
    trace::TraceSink* head = &attributor_t;
    std::unique_ptr<trace::TraceSink> policy;
    std::unique_ptr<TimedSink> policy_t;
    if (scenario.policy) {
      policy = scenario.policy(head);
      policy_t = std::make_unique<TimedSink>(tracer, "core.policy", policy.get());
      head = policy_t.get();
    }
    trace::InterfaceFilter filter{head, scenario.interface};
    TimedSink filter_t{tracer, "trace.filter", &filter};
    StudyBracketStrip strip{&filter_t};

    filter_t.on_study_begin(meta);
    for (const trace::UserId user : users) {
      const Scope s{tracer, replay_layer, true};
      const we::util::Status st = store.emit_user(user, strip, kBatch);
      if (!st.ok()) status_check(r.checks, "replay_" + scenario.name, st);
    }
    filter_t.on_study_end();
    replayed_events += filter_t.events();
    attributed_packets += attributor_t.packets();
    tail_segments += attributor.counters().tail_segments;
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  const RadioCounters radio_after = RadioCounters::take();

  r.checks.push_back({"csv_records_dropped", csv.summary().records_dropped == 0,
                      std::to_string(csv.summary().records_dropped) + " dropped"});
  Digest all;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Digest one;
    digest_ledger(*ledgers[i], one, r.checks);
    all.add(std::string_view{scenarios[i].name});
    all.add(one.value());
  }
  r.digest = all.hex();

  auto& m = r.metrics;
  std::error_code ec;
  const double csv_mb = static_cast<double>(fs::file_size(spec.csv_path(), ec)) / 1e6;
  m["trace.csv.mb_per_s"] = per_s(csv_mb, tracer.self_ms("trace.csv"));
  m["trace.csv.records_dropped"] = static_cast<double>(csv.summary().records_dropped);
  m["trace.segment.write_ms"] = tracer.self_ms("trace.segment.write");
  m["trace.segment.bytes_per_event"] =
      static_cast<double>(store.spilled_bytes()) /
      std::max<double>(1.0, static_cast<double>(store.event_count()));
  m["trace.segment.max_resident_bytes"] = static_cast<double>(store.max_resident_bytes());
  m["trace.segment.replay_ms"] = tracer.self_ms("trace.segment.replay");
  m["trace.segment.events_per_s"] =
      per_s(static_cast<double>(replayed_events), tracer.self_ms("trace.segment.replay"));
  m["energy.attribute.pkts_per_s"] =
      per_s(static_cast<double>(attributed_packets), tracer.self_ms("energy.attribute"));
  m["radio.promotions"] = static_cast<double>(radio_after.promotions - radio_before.promotions);
  m["radio.bursts_queued"] =
      static_cast<double>(radio_after.bursts_queued - radio_before.bursts_queued);
  m["radio.tail_segments"] = static_cast<double>(tail_segments);
  return r;
}

}  // namespace

int run_traced(const Spec& spec, const fs::path& spans_out) {
  fs::create_directories(spec.dir);
  Tracer tracer;
  TracedResult r = spec.workload == Workload::kCsvSweep ? traced_sweep(spec, tracer)
                                                        : traced_pipeline(spec, tracer);
  const bool spans_written = spans_out.empty() || tracer.write(spans_out);
  r.checks.push_back({"spans_written", spans_written, spans_out.string()});

  we::obs::JsonWriter w;
  w.begin_object();
  w.kv("mode", "traced");
  write_provenance(spec, w);
  w.kv("wall_ms", r.wall_ms);
  w.kv("layer_self_ms", tracer.total_self_ms());
  w.kv("spans", static_cast<std::uint64_t>(tracer.span_count()));
  w.kv("digest", std::string_view{r.digest});
  w.key("layers");
  w.begin_object();
  for (const Tracer::Layer& l : tracer.layers()) {
    w.key(l.name);
    w.begin_object();
    w.kv("self_ms", l.self_ns / 1e6);
    w.kv("total_ms", l.total_ns / 1e6);
    w.kv("calls", l.calls);
    w.end_object();
  }
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, value] : r.metrics) w.kv(name, value);
  w.end_object();
  write_checks(r.checks, w);
  w.end_object();
  std::cout << w.str() << "\n";
  return 0;
}

}  // namespace wildbench

// Performance microbenchmarks (google-benchmark): the radio state machine,
// the attribution pipeline, and the study generator. These guard the
// streaming design goal of DESIGN.md §4.2 — full-length 623-day studies must
// stay practical on a laptop.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/pipeline.h"
#include "energy/attributor.h"
#include "obs/memory.h"
#include "obs/stopwatch.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "trace/batch.h"
#include "trace/csv_io.h"
#include "trace/instrumented_sink.h"
#include "trace/interface_filter.h"
#include "trace/spilling_store.h"
#include "util/rng.h"

#include "bench_util.h"

namespace wildenergy {
namespace {

void BM_RadioModelBursts(benchmark::State& state) {
  radio::BurstMachine lte{radio::lte_params()};
  double joules = 0.0;
  const radio::SegmentSink sink = [&](const radio::EnergySegment& s) { joules += s.joules; };
  std::int64_t n = 0;
  for (auto _ : state) {
    lte.on_transfer({TimePoint{n * 20'000'000}, 5000, radio::Direction::kDownlink}, sink);
    ++n;
  }
  lte.finish(TimePoint{n * 20'000'000 + 60'000'000}, sink);
  benchmark::DoNotOptimize(joules);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RadioModelBursts);

void BM_IsolatedBurstEnergy(benchmark::State& state) {
  radio::BurstMachine lte{radio::lte_params()};
  double acc = 0.0;
  for (auto _ : state) {
    acc += lte.isolated_burst_energy(static_cast<std::uint64_t>(state.range(0)),
                                     radio::Direction::kDownlink);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_IsolatedBurstEnergy)->Arg(100)->Arg(100'000)->Arg(10'000'000);

void BM_AttributionPipeline(benchmark::State& state) {
  // Pre-generate a packet schedule, then measure attribution throughput.
  Rng rng{7};
  std::vector<trace::PacketRecord> packets;
  TimePoint t{0};
  for (int i = 0; i < 100'000; ++i) {
    t += sec(rng.exponential(5.0));
    trace::PacketRecord p;
    p.time = t;
    p.app = static_cast<trace::AppId>(rng.uniform_int(40));
    p.bytes = 200 + rng.uniform_int(100'000);
    p.state = trace::ProcessState::kService;
    packets.push_back(p);
  }
  trace::StudyMeta meta;
  meta.num_users = 1;
  meta.study_end = t + hours(1.0);
  trace::EventBatch stream;
  for (const auto& p : packets) stream.add(p);

  for (auto _ : state) {
    trace::TraceSink null_sink;
    energy::EnergyAttributor attr{radio::make_lte_model, &null_sink};
    attr.on_study_begin(meta);
    attr.on_user_begin(0);
    trace::replay_column_span(stream, attr, trace::kDefaultBatchSize);
    attr.on_user_end(0);
    benchmark::DoNotOptimize(attr.device_joules());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_AttributionPipeline)->Unit(benchmark::kMillisecond);

void BM_StudyGeneration(benchmark::State& state) {
  sim::StudyConfig cfg = sim::small_study(42);
  cfg.num_users = 1;
  cfg.num_days = state.range(0);
  const sim::StudyGenerator gen{cfg};
  std::uint64_t packets = 0;
  for (auto _ : state) {
    class Counter final : public trace::TraceSink {
     public:
      std::uint64_t n = 0;
      void on_batch(const trace::EventBatch& batch) override { n += batch.packets.size(); }
    } counter;
    gen.run(counter);
    packets = counter.n;
  }
  state.counters["packets"] = static_cast<double>(packets);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_StudyGeneration)->Arg(10)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_FullPipelineSmallStudy(benchmark::State& state) {
  for (auto _ : state) {
    sim::StudyGenerator generator{sim::small_study(42)};
    core::StudyPipeline pipeline{&generator};
    pipeline.run();
    benchmark::DoNotOptimize(pipeline.ledger().total_joules());
  }
  state.SetLabel("6 users x 60 days x 80 apps");
}
BENCHMARK(BM_FullPipelineSmallStudy)->Unit(benchmark::kMillisecond);

void BM_ShardedPipeline(benchmark::State& state) {
  core::PipelineOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  sim::StudyConfig cfg = sim::small_study(42);
  cfg.num_users = 8;  // enough users to keep every worker in the sweep busy
  for (auto _ : state) {
    sim::StudyGenerator generator{cfg};
    core::StudyPipeline pipeline{&generator, options};
    pipeline.run();
    benchmark::DoNotOptimize(pipeline.ledger().total_joules());
  }
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(BM_ShardedPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Event-path sweep: EventBatch delivery through a realistic sink chain
// (trace/batch.h) at batch sizes {1, 64, 4096}; speedups are relative to
// batch size 1, the most dispatch-bound slicing.

/// A cheap analysis leaf; batch-native like the production sinks.
/// Reads a string in place: its whole body is the get area, with no copy.
class MemoryStreamBuf final : public std::streambuf {
 public:
  explicit MemoryStreamBuf(std::string& text) {
    setg(text.data(), text.data(), text.data() + text.size());
  }
};

class CountingSink final : public trace::TraceSink {
 public:
  void on_batch(const trace::EventBatch& batch) override {
    packets_ += batch.packets.size();
    transitions_ += batch.transitions.size();
    for (const auto& p : batch.packets) bytes_ += p.bytes;
  }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t bytes_ = 0;
};

/// The generated study, captured once as one whole-stream batch per user so
/// the sweep measures sink-chain dispatch, not generation.
struct CapturedStudy final : trace::TraceSink {
  trace::StudyMeta meta;
  std::vector<trace::EventBatch> users;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;

  void on_study_begin(const trace::StudyMeta& m) override { meta = m; }
  void on_user_begin(trace::UserId user) override {
    users.emplace_back();
    users.back().user = user;
  }
  void on_batch(const trace::EventBatch& batch) override {
    users.back().append(batch);
    packets += batch.packets.size();
    events += batch.size();
  }
};

/// A replayed stream kept as delivered — the study meta and each user's
/// batches — so a timed pass re-delivers it with no producer in the loop.
struct RecordedStream final : trace::TraceSink {
  trace::StudyMeta meta;
  std::vector<std::pair<trace::UserId, std::vector<trace::EventBatch>>> users;

  void on_study_begin(const trace::StudyMeta& m) override { meta = m; }
  void on_user_begin(trace::UserId user) override { users.push_back({user, {}}); }
  void on_batch(const trace::EventBatch& batch) override { users.back().second.push_back(batch); }

  void deliver(trace::TraceSink& sink) const {
    sink.on_study_begin(meta);
    for (const auto& [user, batches] : users) {
      sink.on_user_begin(user);
      for (const trace::EventBatch& batch : batches) sink.on_batch(batch);
      sink.on_user_end(user);
    }
    sink.on_study_end();
  }
};

/// Slice one user's captured stream into contiguous spans of `batch_size`
/// events (done outside the timed region; a real producer fills batches as
/// it generates, which costs no extra pass).
std::vector<trace::EventBatch> slice(const trace::EventBatch& whole, std::size_t batch_size) {
  std::vector<trace::EventBatch> slices;
  trace::EventBatch current;
  current.user = whole.user;
  const auto take = [&](const auto& event) {
    current.add(event);
    if (current.size() >= batch_size) {
      slices.push_back(std::move(current));
      current = trace::EventBatch{};
      current.user = whole.user;
    }
  };
  trace::for_each_event(whole, take, take);
  if (!current.empty()) slices.push_back(std::move(current));
  return slices;
}

/// One timed delivery of the captured study, pre-sliced into `slices`,
/// through the chain
///   InterfaceFilter -> InstrumentedSink -> TraceMulticast -> 8 counters.
/// Returns wall ms.
double run_event_path(const CapturedStudy& study,
                      const std::vector<std::vector<trace::EventBatch>>& slices) {
  std::vector<CountingSink> leaves(8);
  trace::TraceMulticast fan;
  for (auto& leaf : leaves) fan.add(&leaf);
  trace::InstrumentedSink instrumented{"bench", &fan};
  trace::InterfaceFilter head{&instrumented, trace::Interface::kCellular};

  obs::Stopwatch watch;
  head.on_study_begin(study.meta);
  for (std::size_t u = 0; u < study.users.size(); ++u) {
    head.on_user_begin(study.users[u].user);
    for (const auto& batch : slices[u]) head.on_batch(batch);
    head.on_user_end(study.users[u].user);
  }
  head.on_study_end();
  return watch.elapsed_ms();
}

}  // namespace
}  // namespace wildenergy

// Custom main instead of BENCHMARK_MAIN(): after the microbenches, the
// headline "micro_pipeline" sweep captures the study once into a resident
// SpillingTraceStore (no directory, untimed) and then runs the full pipeline — filter -> attribution ->
// ledger/analyses — over the store at each worker-thread count, emitting one
// perf footer / WILDENERGY_BENCH_JSON record per thread count (with
// `threads` and `speedup` = serial wall over that run's wall). Timing the
// data plane over a pre-captured store is the number the flat-state refactor
// is accountable to; it deliberately excludes the generator's serial RNG
// walk, which previously dominated (~75%) the old generator-backed
// definition of this bench and capped any data-plane speedup at ~1.3x. On a
// single-CPU host the sweep honestly reports speedup ~= 1. Then two
// event-path sweeps: sink-chain dispatch at batch sizes {1, 64, 4096}, and
// the generator-backed full pipeline at batch size 1 vs the default —
// micro_pipeline.full_batched keeps end-to-end continuity with records from
// before this bench was redefined (each record carries "batch_size":N;
// speedup is the batch-size-1 wall over that run's wall). Last,
// micro_pipeline.generate times the generator alone into a counting sink.
// micro_pipeline.attribute, right after the thread sweep, is attribution
// alone: the store's batches are recorded first, so no replay is timed.
// micro_pipeline.segment_replay is the WESG decoder alone, over the study
// sealed at an 8 MiB budget. With .generate, three layers each have their
// own trajectory. micro_pipeline.csv_capture is the CSV reader and the WESG
// encoder: an in-memory CSV of the study captured into that sealed store.
// Each phase starts with obs::reset_peak_rss(), so each record's
// peak_rss_bytes is that phase's own peak where the host allows the reset.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace wildenergy;
  const sim::StudyConfig cfg = benchutil::config_from_env(/*default_days=*/60);
  {
    obs::reset_peak_rss();
    sim::StudyGenerator generator{cfg};
    trace::SpillingTraceStore store;
    if (!store.capture(generator).ok()) return 1;
    constexpr int kReps = 3;
    double serial_wall_ms = 0.0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      core::PipelineOptions options;
      options.num_threads = threads;
      obs::RunStats best;
      for (int rep = 0; rep < kReps; ++rep) {
        core::StudyPipeline pipeline{&store, options};
        const auto result = pipeline.run();
        if (!result.ok()) return 1;
        if (rep == 0 || result->wall_ms < best.wall_ms) best = result.value();
      }
      if (threads == 1) serial_wall_ms = best.wall_ms;
      benchutil::report_perf("micro_pipeline", cfg, best, serial_wall_ms);
    }

    // Attribution alone (the layer after generation in ROADMAP item 1): the
    // store's stream, recorded as default-size batches before any clock
    // starts, delivered into an EnergyAttributor on the default LTE model,
    // whose annotated stream goes nowhere; serial, best of kReps. Its joules
    // are the attributed total, which the pipeline's ledger records too.
    RecordedStream recorded;
    if (!store.emit(recorded, trace::kDefaultBatchSize).ok()) return 1;
    store.clear();
    obs::reset_peak_rss();
    double best_ms = 0.0;
    energy::AttributionCounters counters;
    double joules = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      trace::TraceSink discard;
      energy::EnergyAttributor attributor{radio::make_lte_model, &discard};
      const obs::Stopwatch watch;
      recorded.deliver(attributor);
      const double ms = watch.elapsed_ms();
      counters = attributor.counters();
      joules = attributor.attributed_joules();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    benchutil::report_perf("micro_pipeline.attribute", cfg, best_ms, counters.packets, joules);
  }

  // The WESG decoder alone: the study sealed into segments under an 8 MiB
  // resident budget (csv_sweep's), replayed serially into a counting sink at
  // the default batch size, best of kReps. Records packets like the others
  // and the decoded events (packets + transitions) as "events".
  {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("wildenergy_bench_segments_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    {
      sim::StudyGenerator generator{cfg};
      trace::SpillingTraceStore store{{.dir = dir.string(), .budget_bytes = 8u << 20}};
      if (!store.capture(generator).ok()) return 1;
      obs::reset_peak_rss();
      constexpr int kReps = 3;
      double best_ms = 0.0;
      std::uint64_t packets = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        CountingSink counter;
        const obs::Stopwatch watch;
        if (!store.emit(counter, trace::kDefaultBatchSize).ok()) return 1;
        const double ms = watch.elapsed_ms();
        packets = counter.packets();
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      benchutil::report_perf("micro_pipeline.segment_replay", cfg, best_ms, packets,
                             benchutil::no_joules(), /*threads=*/1, /*speedup=*/1.0,
                             "\"events\":" + std::to_string(store.event_count()) +
                                 ",\"segments\":" + std::to_string(store.num_segments()));
    }
    std::filesystem::remove_all(dir);
  }

  // CSV capture alone (csv_sweep's first half): the study written as CSV
  // into memory, untimed, then read by a CsvTraceSource and sealed into a
  // store at an 8 MiB budget, best of kReps: at threads 1 lines parse and
  // seals run inline; at threads 2 and 4 that many workers parse lines and
  // a sealer thread seals. Records the CSV read rate as
  // "mb_per_s", the captured events as "events" and the speedup over
  // threads 1.
  {
    std::string csv;
    std::uint64_t packets = 0;
    {
      std::ostringstream os;
      trace::CsvTraceWriter writer{os};
      CountingSink counter;
      trace::TraceMulticast fan;
      fan.add(&writer);
      fan.add(&counter);
      sim::StudyGenerator{cfg}.run(fan);
      csv = std::move(os).str();
      packets = counter.packets();
    }
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("wildenergy_bench_csv_capture_" + std::to_string(::getpid()));
    constexpr int kReps = 3;
    double serial_ms = 0.0;
    for (const unsigned threads : {1u, 2u, 4u}) {
      obs::reset_peak_rss();  // the peak of the capture, with the CSV held
      double best_ms = 0.0;
      std::uint64_t events = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        std::filesystem::remove_all(dir);
        MemoryStreamBuf buf{csv};
        std::istream is{&buf};
        trace::CsvTraceSource source{is};
        trace::SpillingTraceStore store{{.dir = dir.string(), .budget_bytes = 8u << 20}};
        const obs::Stopwatch watch;
        if (!store.capture(source, trace::kDefaultBatchSize, threads).ok()) return 1;
        const double ms = watch.elapsed_ms();
        events = store.event_count();
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      if (threads == 1) serial_ms = best_ms;
      const double mb_per_s =
          best_ms > 0.0 ? static_cast<double>(csv.size()) / 1e6 / (best_ms / 1e3) : 0.0;
      benchutil::report_perf("micro_pipeline.csv_capture", cfg, best_ms, packets,
                             benchutil::no_joules(), threads,
                             best_ms > 0.0 ? serial_ms / best_ms : 1.0,
                             "\"events\":" + std::to_string(events) +
                                 ",\"csv_bytes\":" + std::to_string(csv.size()) +
                                 ",\"mb_per_s\":" + std::to_string(mb_per_s));
    }
    std::filesystem::remove_all(dir);
  }

  // Sink-chain dispatch by batch size, single thread. Each configuration
  // keeps the best of kReps runs (dispatch benches are noisy).
  {
    obs::reset_peak_rss();
    CapturedStudy study;
    sim::StudyGenerator{cfg}.run(study);
    constexpr int kReps = 5;
    double batch1_ms = 0.0;
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
      std::vector<std::vector<trace::EventBatch>> slices;
      slices.reserve(study.users.size());
      for (const auto& user : study.users) slices.push_back(slice(user, batch_size));
      double best_ms = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        const double ms = run_event_path(study, slices);
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      if (batch_size == 1) batch1_ms = best_ms;
      const double speedup = batch_size == 1 || best_ms <= 0.0 ? 1.0 : batch1_ms / best_ms;
      // Dispatch-only sweep: the counter chain attributes no energy.
      benchutil::report_perf("micro_pipeline.event_path", cfg, best_ms, study.packets,
                             benchutil::no_joules(), /*threads=*/1, speedup,
                             "\"batch_size\":" + std::to_string(batch_size));
    }
  }

  // Full pipeline, generation and attribution included: the honest end-to-end
  // cost of batch size 1 vs the default batch size.
  {
    obs::reset_peak_rss();
    constexpr int kReps = 3;
    double batch1_ms = 0.0;
    for (const std::size_t batch_size : {std::size_t{1}, core::PipelineOptions{}.batch_size}) {
      core::PipelineOptions options;
      options.batch_size = batch_size;
      sim::StudyGenerator generator{cfg};
      core::StudyPipeline pipeline{&generator, options};
      double best_ms = 0.0;
      obs::RunStats last_stats;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto result = pipeline.run();
        if (!result.ok()) return 1;
        last_stats = result.value();
        if (rep == 0 || last_stats.wall_ms < best_ms) best_ms = last_stats.wall_ms;
      }
      if (batch_size == 1) batch1_ms = best_ms;
      const double speedup = batch_size == 1 || best_ms <= 0.0 ? 1.0 : batch1_ms / best_ms;
      benchutil::report_perf("micro_pipeline.full_batched", cfg, best_ms, last_stats.packets,
                             last_stats.joules, /*threads=*/1, speedup,
                             "\"batch_size\":" + std::to_string(batch_size));
    }
  }

  // The generator alone (ROADMAP item 1's layer): serial, default batch size,
  // into a sink that only counts, best of kReps.
  {
    obs::reset_peak_rss();
    constexpr int kReps = 3;
    const sim::StudyGenerator generator{cfg};
    double best_ms = 0.0;
    std::uint64_t packets = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      CountingSink counter;
      const obs::Stopwatch watch;
      generator.run(counter);
      const double ms = watch.elapsed_ms();
      packets = counter.packets();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    benchutil::report_perf("micro_pipeline.generate", cfg, best_ms, packets,
                           benchutil::no_joules());
  }
  return 0;
}

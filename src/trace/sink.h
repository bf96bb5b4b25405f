// Streaming trace consumption.
//
// The full study is ~623 days x 20 users; materializing every packet record
// would cost gigabytes. Instead the generator pushes events through TraceSink
// implementations (energy attribution, analyses) which keep O(apps + bins)
// state (DESIGN.md §4.2). Events for one user arrive in non-decreasing time
// order, as EventBatch spans (trace/batch.h); users arrive one after another,
// bracketed by begin/end callbacks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/memory.h"
#include "trace/record.h"
#include "trace/shardable.h"

namespace wildenergy::trace {

class EventBatch;  // trace/batch.h

/// Study-level metadata passed to sinks up front.
struct StudyMeta {
  std::uint32_t num_users = 0;
  std::uint32_t num_apps = 0;
  TimePoint study_begin{};
  TimePoint study_end{};

  [[nodiscard]] Duration span() const { return study_end - study_begin; }
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void on_study_begin(const StudyMeta& /*meta*/) {}
  virtual void on_user_begin(UserId /*user*/) {}
  virtual void on_user_end(UserId /*user*/) {}
  virtual void on_study_end() {}

  /// A time-ordered span of one user's events (trace/batch.h): the only way
  /// events are delivered. Arrives strictly inside the user's bracket.
  /// Producers and forwarding sinks override this. The default replays the
  /// batch into on_packet / on_transition below, so a leaf sink may take its
  /// events one record at a time instead; a sink implements one of the two.
  virtual void on_batch(const EventBatch& batch);

  /// Per-record convenience for leaf sinks, reached only through the default
  /// on_batch (trace::replay). Packets and transitions are interleaved in
  /// time order per user.
  virtual void on_packet(const PacketRecord& /*packet*/) {}
  virtual void on_transition(const StateTransition& /*transition*/) {}

  /// Approximate memory footprint of this sink's accumulated state, for the
  /// telemetry memory report (obs::RunStats::memory): resident capacity
  /// estimate of owned containers (not allocator truth, DESIGN.md §11) plus
  /// any bytes the sink has spilled to durable side files. Sinks that keep
  /// O(1) state may leave the zero default.
  [[nodiscard]] virtual obs::MemoryUse memory_use() const { return {}; }
};

/// Fans one stream out to several sinks, in registration order.
class TraceMulticast final : public TraceSink {
 public:
  /// Pointers are non-owning; callers keep the sinks alive for the run.
  void add(TraceSink* sink) { sinks_.push_back(sink); }
  /// Drop all registered sinks (the pipeline rebuilds its fan-out per run).
  void clear() { sinks_.clear(); }

  void on_study_begin(const StudyMeta& meta) override {
    for (auto* s : sinks_) s->on_study_begin(meta);
  }
  void on_user_begin(UserId user) override {
    for (auto* s : sinks_) s->on_user_begin(user);
  }
  void on_user_end(UserId user) override {
    for (auto* s : sinks_) s->on_user_end(user);
  }
  void on_study_end() override {
    for (auto* s : sinks_) s->on_study_end();
  }
  void on_batch(const EventBatch& batch) override;

 private:
  std::vector<TraceSink*> sinks_;
};

/// Collects everything into memory. Tests and short windows (Fig. 4) only.
///
/// Shardable: each clone collects one user's stream; merge_from splices the
/// shard's events onto this collector. Merges arrive in user-id order, which
/// is exactly the serial stream order, so the collected vectors are
/// bit-identical at any thread count.
class TraceCollector final : public TraceSink, public ShardableSink {
 public:
  void on_study_begin(const StudyMeta& meta) override {
    meta_ = meta;
    packets_.clear();
    transitions_.clear();
  }
  void on_batch(const EventBatch& batch) override;

  [[nodiscard]] std::unique_ptr<TraceSink> clone_shard() const override;
  void merge_from(TraceSink& shard) override;

  [[nodiscard]] const StudyMeta& meta() const { return meta_; }
  [[nodiscard]] const std::vector<PacketRecord>& packets() const { return packets_; }
  [[nodiscard]] const std::vector<StateTransition>& transitions() const { return transitions_; }

  [[nodiscard]] obs::MemoryUse memory_use() const override {
    return {.resident_bytes = packets_.capacity() * sizeof(PacketRecord) +
                              transitions_.capacity() * sizeof(StateTransition),
            .spilled_bytes = 0};
  }

 private:
  StudyMeta meta_;
  std::vector<PacketRecord> packets_;
  std::vector<StateTransition> transitions_;
};

}  // namespace wildenergy::trace

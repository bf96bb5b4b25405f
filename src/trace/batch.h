// EventBatch: the one form in which events travel between components.
//
// An EventBatch carries a contiguous, time-ordered span of one user's events
// — packets and transitions interleaved in stream order — so every sink pays
// dispatch (and any per-callback bookkeeping) once per span instead of once
// per record.
//
// Protocol invariants (DESIGN.md §9):
//   - A batch lies strictly inside one user's bracket: on_user_begin and
//     on_user_end (and the study brackets) are never batched, and every event
//     in a batch names `user`.
//   - Events are in non-decreasing time order across the whole batch
//     (`order` records the interleaving; transitions win timestamp ties
//     upstream).
//   - Consecutive batches for one user are contiguous spans of that user's
//     stream; a producer may slice the stream at any point, so any batch
//     size (≥ 1) produces bit-identical outputs.
//   - Producers and forwarding sinks call only on_batch. Leaf sinks that
//     need the interleave one record at a time implement on_packet /
//     on_transition instead and take the default on_batch, which replays
//     the batch into them (replay() below is the only caller).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.h"
#include "trace/sink.h"

namespace wildenergy::trace {

/// The one default batch size, shared by every knob that slices the event
/// stream (core::RunOptions::batch_size — so both the pipeline and the sweep —
/// trace::ReadOptions::batch_size, CLI --batch-size). A cache-friendly span
/// that measures well on the micro_pipeline event-path sweep; outputs are
/// bit-identical for every value, so changing it is purely a perf decision.
inline constexpr std::size_t kDefaultBatchSize = 256;

enum class EventKind : std::uint8_t { kPacket = 0, kTransition = 1 };

/// A time-ordered span of one user's events. Columnar: packets and
/// transitions are stored in separate arrays (so batch consumers can scan
/// one kind without branching), with `order` preserving the interleaving.
class EventBatch {
 public:
  UserId user = 0;
  std::vector<PacketRecord> packets;
  std::vector<StateTransition> transitions;
  /// The interleaving: order[i] says which array the i-th event comes from;
  /// events of each kind appear in array order.
  std::vector<EventKind> order;

  void add(const PacketRecord& packet) {
    packets.push_back(packet);
    order.push_back(EventKind::kPacket);
  }
  void add(const StateTransition& transition) {
    transitions.push_back(transition);
    order.push_back(EventKind::kTransition);
  }
  /// Append every event of `other` after this batch's events.
  void append(const EventBatch& other) {
    packets.insert(packets.end(), other.packets.begin(), other.packets.end());
    transitions.insert(transitions.end(), other.transitions.begin(), other.transitions.end());
    order.insert(order.end(), other.order.begin(), other.order.end());
  }

  [[nodiscard]] std::size_t size() const { return order.size(); }
  [[nodiscard]] bool empty() const { return order.empty(); }

  /// Forget the events but keep the capacity (batches are reused hot).
  void clear() {
    packets.clear();
    transitions.clear();
    order.clear();
  }

  void reserve(std::size_t events) {
    packets.reserve(events);
    order.reserve(events);
  }
};

/// Walk `batch` in stream order, calling `packet_fn(const PacketRecord&)` or
/// `transition_fn(const StateTransition&)` per event: the one loop over the
/// `order` column.
template <typename PacketFn, typename TransitionFn>
void for_each_event(const EventBatch& batch, PacketFn&& packet_fn, TransitionFn&& transition_fn) {
  std::size_t pi = 0;
  std::size_t ti = 0;
  for (const EventKind kind : batch.order) {
    if (kind == EventKind::kPacket) {
      packet_fn(batch.packets[pi++]);
    } else {
      transition_fn(batch.transitions[ti++]);
    }
  }
}

/// Deliver `batch` to `sink` through the per-record callbacks, in stream
/// order. TraceSink::on_batch's default implementation is exactly this call
/// on itself; nothing else in the library calls on_packet / on_transition.
inline void replay(const EventBatch& batch, TraceSink& sink) {
  for_each_event(
      batch, [&](const PacketRecord& packet) { sink.on_packet(packet); },
      [&](const StateTransition& transition) { sink.on_transition(transition); });
}

/// Slices a record-at-a-time producer's events into batches: the CSV
/// reader (csv_io) add()s each parsed record and sends the brackets through
/// the batcher, which flushes a (possibly short) batch before every bracket,
/// preserving stream order exactly.
class EventBatcher final : public TraceSink {
 public:
  /// `downstream` is non-owning. `batch_size` is the number of events per
  /// flushed batch (clamped to at least 1).
  EventBatcher(TraceSink* downstream, std::size_t batch_size)
      : downstream_(downstream), batch_size_(batch_size == 0 ? 1 : batch_size) {
    batch_.reserve(batch_size_);
  }

  void add(const PacketRecord& packet) {
    batch_.add(packet);
    if (batch_.size() >= batch_size_) flush();
  }
  void add(const StateTransition& transition) {
    batch_.add(transition);
    if (batch_.size() >= batch_size_) flush();
  }

  void on_study_begin(const StudyMeta& meta) override {
    flush();
    downstream_->on_study_begin(meta);
  }
  void on_user_begin(UserId user) override {
    flush();
    batch_.user = user;
    downstream_->on_user_begin(user);
  }
  void on_user_end(UserId user) override {
    flush();
    downstream_->on_user_end(user);
  }
  void on_study_end() override {
    flush();
    downstream_->on_study_end();
  }
  void on_batch(const EventBatch& batch) override {
    // Already-batched input passes through unchanged (no re-slicing).
    flush();
    downstream_->on_batch(batch);
  }

  /// Deliver the pending (short) batch now. A reader calls this when its
  /// input stops before the next bracket would have flushed it.
  void flush() {
    if (batch_.empty()) return;
    downstream_->on_batch(batch_);
    batch_.clear();
  }

 private:
  TraceSink* downstream_;
  std::size_t batch_size_;
  EventBatch batch_;
};

}  // namespace wildenergy::trace

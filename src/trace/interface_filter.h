// Keep only one interface's packets (transitions always pass).
//
// The paper analyzes cellular traffic ("we focus primarily on cellular
// traffic in this study as it consumes far more energy than WiFi", §3);
// this filter is how a pipeline expresses that scoping. Dropped-byte
// counters feed the cellular-vs-WiFi comparison bench.
#pragma once

#include "trace/batch.h"
#include "trace/sink.h"

namespace wildenergy::trace {

class InterfaceFilter final : public TraceSink {
 public:
  /// Forwards to `downstream` (non-owning) only packets on `keep`.
  InterfaceFilter(TraceSink* downstream, Interface keep)
      : downstream_(downstream), keep_(keep) {}

  void on_study_begin(const StudyMeta& meta) override {
    dropped_packets_ = 0;
    dropped_bytes_ = 0;
    downstream_->on_study_begin(meta);
  }
  void on_user_begin(UserId user) override { downstream_->on_user_begin(user); }
  void on_user_end(UserId user) override { downstream_->on_user_end(user); }
  void on_study_end() override { downstream_->on_study_end(); }

  void on_batch(const EventBatch& batch) override {
    // Common case (single-interface studies): nothing to drop, forward the
    // batch untouched. Only rebuild when a packet actually fails the filter.
    bool all_kept = true;
    for (const auto& p : batch.packets) {
      if (p.interface != keep_) {
        all_kept = false;
        break;
      }
    }
    if (all_kept) {
      downstream_->on_batch(batch);
      return;
    }
    scratch_.clear();
    scratch_.user = batch.user;
    for_each_event(
        batch,
        [&](const PacketRecord& p) {
          if (p.interface == keep_) {
            scratch_.add(p);
          } else {
            ++dropped_packets_;
            dropped_bytes_ += p.bytes;
          }
        },
        [&](const StateTransition& t) { scratch_.add(t); });
    if (!scratch_.empty()) downstream_->on_batch(scratch_);
  }

  [[nodiscard]] std::uint64_t dropped_packets() const { return dropped_packets_; }
  [[nodiscard]] std::uint64_t dropped_bytes() const { return dropped_bytes_; }

 private:
  TraceSink* downstream_;
  Interface keep_;
  std::uint64_t dropped_packets_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  EventBatch scratch_;  ///< reused output batch for the drop path
};

}  // namespace wildenergy::trace

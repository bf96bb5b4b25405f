// InstrumentedSink: a decorating TraceSink that measures one stage of the
// streaming pipeline — callback self time (via obs::PhaseStack, so nested
// downstream stages are not double-charged), record/byte throughput, and
// optionally one Chrome-trace span per user window on the stage's track.
//
// StudyPipeline wraps the interface filter, policy, attributor, ledger and
// every registered analysis in one of these when stage stats are requested;
// it is equally usable standalone around any TraceSink.
#pragma once

#include <string>
#include <utility>

#include "obs/run_stats.h"
#include "obs/stopwatch.h"
#include "obs/trace_writer.h"
#include "trace/batch.h"
#include "trace/sink.h"

namespace wildenergy::trace {

class InstrumentedSink final : public TraceSink {
 public:
  /// `inner` is non-owning. `stack` enables self-time profiling (nullptr =
  /// counting only). `writer` + `tid` additionally emit a span per user.
  InstrumentedSink(std::string name, TraceSink* inner, obs::PhaseStack* stack = nullptr,
                   obs::TraceWriter* writer = nullptr, int tid = 0)
      : inner_(inner), stack_(stack), writer_(writer), tid_(tid) {
    stats_.name = std::move(name);
  }

  void on_study_begin(const StudyMeta& meta) override {
    obs::ScopedPhase phase{stack_, &self_ns_};
    inner_->on_study_begin(meta);
  }

  void on_user_begin(UserId user) override {
    if (writer_ != nullptr) {
      user_span_start_us_ = writer_->now_us();
      self_ns_at_user_begin_ = self_ns_;
      current_user_ = user;
    }
    obs::ScopedPhase phase{stack_, &self_ns_};
    inner_->on_user_begin(user);
  }

  void on_batch(const EventBatch& batch) override {
    // One timing frame and one counter update per batch: the two clock reads
    // amortize over the whole span.
    const double before_ns = self_ns_;
    {
      obs::ScopedPhase phase{stack_, &self_ns_};
      stats_.packets += batch.packets.size();
      stats_.transitions += batch.transitions.size();
      for (const auto& p : batch.packets) stats_.bytes += p.bytes;
      inner_->on_batch(batch);
    }
    if (stack_ != nullptr) {
      // One latency sample per delivered batch. The sample *values* vary run
      // to run; the *count* is a pure function of the stream and batch_size,
      // so it is bit-identical across thread counts (obs/run_stats.h).
      stats_.batch_latency_us.record(static_cast<std::uint64_t>((self_ns_ - before_ns) / 1e3));
    }
  }

  void on_user_end(UserId user) override {
    {
      obs::ScopedPhase phase{stack_, &self_ns_};
      inner_->on_user_end(user);
    }
    if (writer_ != nullptr) {
      // Span start = when this user's window opened; duration = this stage's
      // self time within the window (a cost profile, not a timeline).
      const auto dur_us =
          static_cast<std::int64_t>((self_ns_ - self_ns_at_user_begin_) / 1e3);
      writer_->add_complete("user " + std::to_string(current_user_), stats_.name,
                            user_span_start_us_, dur_us, tid_);
    }
  }

  void on_study_end() override {
    obs::ScopedPhase phase{stack_, &self_ns_};
    inner_->on_study_end();
  }

  /// Snapshot of this stage's counters and accumulated self time.
  [[nodiscard]] obs::StageStats stats() const {
    obs::StageStats out = stats_;
    out.self_ms = self_ns_ / 1e6;
    return out;
  }
  [[nodiscard]] const std::string& name() const { return stats_.name; }

 private:
  TraceSink* inner_;
  obs::PhaseStack* stack_;
  obs::TraceWriter* writer_;
  int tid_;
  obs::StageStats stats_;
  double self_ns_ = 0.0;
  double self_ns_at_user_begin_ = 0.0;
  std::int64_t user_span_start_us_ = 0;
  UserId current_user_ = 0;
};

}  // namespace wildenergy::trace

// In-memory span recorder for the traced run.
//
// Every call the benchmark makes into a layer — directly, or through a
// TimedSink decorator placed in front of the layer's sink — opens a scope on
// one stack. Closing a scope charges its duration to its layer's total and to
// the parent scope's child time, so a layer's self time is its time minus
// the time of the layer calls nested inside it. Per-callback scopes only
// accumulate; scopes opened with `keep` (one per user, fold, checkpoint,
// seal) are also kept whole as spans and written out at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "trace/batch.h"
#include "trace/sink.h"

namespace wildbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Layer {
    std::string name;
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::uint64_t calls = 0;
  };
  struct Span {
    int layer = 0;
    int parent = -1;  ///< parent span's layer, -1 at top level
    double start_ns = 0.0;
    double end_ns = 0.0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// The id of layer `name`, registering it on first use.
  int layer(std::string_view name);

  void begin(int layer, bool keep);
  void end();

  [[nodiscard]] const std::vector<Layer>& layers() const { return layers_; }
  [[nodiscard]] const Layer* find(std::string_view name) const;
  /// A layer's self time in ms (0 when the layer never ran).
  [[nodiscard]] double self_ms(std::string_view name) const;
  [[nodiscard]] double total_self_ms() const;
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  /// Write the kept spans as a Chrome trace (open at https://ui.perfetto.dev)
  /// with every layer's totals in the metadata. Returns false on I/O error.
  bool write(const std::filesystem::path& path) const;

 private:
  struct Frame {
    int layer;
    bool keep;
    Clock::time_point start;
    double child_ns;
  };

  Clock::time_point origin_;
  std::vector<Layer> layers_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
};

/// RAII scope on a Tracer.
class Scope {
 public:
  Scope(Tracer& tracer, int layer, bool keep = false) : tracer_(tracer) {
    tracer_.begin(layer, keep);
  }
  ~Scope() { tracer_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

/// Times every callback into `inner` under one layer, and counts the events
/// that enter it.
class TimedSink final : public wildenergy::trace::TraceSink {
 public:
  TimedSink(Tracer& tracer, std::string_view layer, wildenergy::trace::TraceSink* inner)
      : tracer_(tracer), layer_(tracer.layer(layer)), inner_(inner) {}

  void on_study_begin(const wildenergy::trace::StudyMeta& meta) override {
    const Scope s{tracer_, layer_};
    inner_->on_study_begin(meta);
  }
  void on_user_begin(wildenergy::trace::UserId user) override {
    const Scope s{tracer_, layer_};
    inner_->on_user_begin(user);
  }
  void on_packet(const wildenergy::trace::PacketRecord& packet) override {
    ++packets_;
    const Scope s{tracer_, layer_};
    inner_->on_packet(packet);
  }
  void on_transition(const wildenergy::trace::StateTransition& transition) override {
    ++transitions_;
    const Scope s{tracer_, layer_};
    inner_->on_transition(transition);
  }
  void on_user_end(wildenergy::trace::UserId user) override {
    const Scope s{tracer_, layer_};
    inner_->on_user_end(user);
  }
  void on_study_end() override {
    const Scope s{tracer_, layer_};
    inner_->on_study_end();
  }
  void on_batch(const wildenergy::trace::EventBatch& batch) override {
    packets_ += batch.packets.size();
    transitions_ += batch.transitions.size();
    const Scope s{tracer_, layer_};
    inner_->on_batch(batch);
  }

  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::uint64_t events() const { return packets_ + transitions_; }

 private:
  Tracer& tracer_;
  int layer_;
  wildenergy::trace::TraceSink* inner_;
  std::uint64_t packets_ = 0;
  std::uint64_t transitions_ = 0;
};

/// Drops the study bracket that each per-user emit_user() wraps around its
/// user, so consecutive users stream into one study, as in a serial run.
class StudyBracketStrip final : public wildenergy::trace::TraceSink {
 public:
  explicit StudyBracketStrip(wildenergy::trace::TraceSink* inner) : inner_(inner) {}

  void on_user_begin(wildenergy::trace::UserId user) override { inner_->on_user_begin(user); }
  void on_packet(const wildenergy::trace::PacketRecord& packet) override {
    inner_->on_packet(packet);
  }
  void on_transition(const wildenergy::trace::StateTransition& transition) override {
    inner_->on_transition(transition);
  }
  void on_user_end(wildenergy::trace::UserId user) override { inner_->on_user_end(user); }
  void on_batch(const wildenergy::trace::EventBatch& batch) override { inner_->on_batch(batch); }

 private:
  wildenergy::trace::TraceSink* inner_;
};

}  // namespace wildbench

// TraceSource: the one producer API every trace consumer plugs into.
//
// Before this interface the system had three ad-hoc entry points into the
// sink pipeline — sim::StudyGenerator::run for synthetic studies,
// read_csv_trace for replayed files — and every consumer
// (StudyPipeline, the CLI's analyze path, benches) hard-coded which one it
// spoke to. A TraceSource is anything that can emit the canonical event
// stream (study bracket, users in order, time-ordered events per user) into
// a TraceSink; StudyPipeline, the CLI and the sweep engine consume the
// interface and no longer care whether events come from the simulator, a
// file, or a captured SpillingTraceStore (trace/spilling_store.h).
//
// Contract:
//   - emit() streams the whole study, including the study/user brackets.
//     Events are delivered via TraceSink::on_batch in spans of batch_size
//     (≥ 1) events. Outputs downstream are bit-identical for every
//     batch_size (trace/batch.h).
//   - Every user id is below meta().num_users and opens at most one user
//     bracket per study: sinks size per-user state by id and merge each user
//     once. The CSV reader drops (lenient) or fails on (strict) a bracket
//     that breaks this at its ingest boundary (trace/validating_sink.h).
//   - meta() is the study header. Sources that only learn it from the stream
//     itself (the file readers) return a zero StudyMeta until their first
//     emit() has passed the header.
//   - supports_user_access() advertises random access: emit_user() streams a
//     single user's bracketed stream, and users() lists the user ids in
//     stream order. The execution engine (core/engine.h) runs such sources
//     through its parallel shard window; forward-only stream sources leave
//     it false and are split per user bracket on the reading thread.
#pragma once

#include <cstddef>
#include <vector>

#include "trace/sink.h"
#include "util/status.h"

namespace wildenergy::trace {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Stream the whole study into `sink`. Returns non-OK when the source
  /// itself failed (unreadable file, corrupt stream under a strict read
  /// policy); sink-side exceptions propagate unchanged.
  virtual util::Status emit(TraceSink& sink, std::size_t batch_size) = 0;

  /// emit() with `threads` the caller can spend producing the stream. The
  /// stream is the same at every count. The default ignores the count and
  /// emits on the calling thread; CsvTraceSource parses on workers.
  virtual util::Status emit(TraceSink& sink, std::size_t batch_size, unsigned threads) {
    (void)threads;
    return emit(sink, batch_size);
  }

  /// Busy time of the worker threads the last emit() produced on, summed
  /// over workers; 0 when it ran on the calling thread alone.
  [[nodiscard]] virtual double emit_worker_ms() const { return 0.0; }

  /// Study header. Zero-valued for stream sources before their first emit().
  [[nodiscard]] virtual StudyMeta meta() const = 0;

  /// True when emit_user()/users() work without a full pass, which lets the
  /// engine run users in parallel; stream readers return false.
  [[nodiscard]] virtual bool supports_user_access() const { return false; }

  /// Stream one user's events, still bracketed by study begin/end.
  virtual util::Status emit_user(UserId /*user*/, TraceSink& /*sink*/,
                                 std::size_t /*batch_size*/) {
    return util::Status::failed_precondition(
        "trace source does not support per-user access");
  }

  /// User ids in stream order. Default: 0 .. meta().num_users - 1, which is
  /// what the generator and generator-derived stores produce.
  [[nodiscard]] virtual std::vector<UserId> users() const {
    std::vector<UserId> ids;
    ids.reserve(meta().num_users);
    for (UserId u = 0; u < meta().num_users; ++u) ids.push_back(u);
    return ids;
  }
};

/// Forwarding decorator that remembers the StudyMeta passing through. The
/// CSV reader uses it so its meta() works after the first emit without
/// re-parsing the header.
class MetaCaptureSink final : public TraceSink {
 public:
  MetaCaptureSink(TraceSink* downstream, StudyMeta* out)
      : downstream_(downstream), out_(out) {}

  void on_study_begin(const StudyMeta& meta) override {
    *out_ = meta;
    downstream_->on_study_begin(meta);
  }
  void on_user_begin(UserId user) override { downstream_->on_user_begin(user); }
  void on_user_end(UserId user) override { downstream_->on_user_end(user); }
  void on_study_end() override { downstream_->on_study_end(); }
  void on_batch(const EventBatch& batch) override { downstream_->on_batch(batch); }

 private:
  TraceSink* downstream_;
  StudyMeta* out_;
};

}  // namespace wildenergy::trace

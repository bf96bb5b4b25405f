// Shard/merge protocol for the execution engine (core/engine.h) behind
// StudyPipeline and SweepEngine.
//
// Every analysis consumes independent per-user streams, so the engine runs
// one shard per user — if the sinks can be cloned and merged. A sink opts in
// by also deriving from ShardableSink:
//
//   - clone_shard() returns a fresh, empty sink of the same type and
//     configuration. The engine sends each clone a full study bracket
//     (on_study_begin .. on_study_end) containing exactly one user. A clone
//     must hold only that user's state — ignore StudyMeta::num_users — so a
//     clone's footprint never grows with the population.
//   - The engine opens the parent sink once with on_study_begin(meta), then
//     calls parent.merge_from(shard) as each shard completes, in ascending
//     user-id order, and finally on_study_end(). merge_from visits only the
//     clone's one user.
//
// Determinism contract: for any thread count, merged results must be
// bit-identical to the serial single-pass run. Integer aggregates merge by
// addition. Cross-user double aggregates are NOT associative under addition,
// so sinks must keep per-user partial sums and fold them in user-id order at
// query time — then the serial pass and the sharded merge produce the exact
// same fold (see energy/ledger.h for the pattern). Sample collections
// (util::Distribution) merge by appending, which reproduces the serial
// user-major insertion order. Order-preserving collectors (TraceCollector)
// merge by splicing shard streams in the user-id merge order, which is the
// serial stream order.
//
// Every sink in the default analysis set implements this interface — the
// engine has no serial-replay fallback path. A custom sink that does not
// implement it is wrapped in a collect-splice adapter (core/engine.cpp),
// which captures each user's annotated stream on the worker and replays the
// captures into the wrapped sink in user-id order at merge time.
#pragma once

#include <memory>

#include "trace/record.h"

namespace wildenergy::energy {
class AccountSpill;  // energy/account_file.h
}

namespace wildenergy::trace {

class TraceSink;

class ShardableSink {
 public:
  virtual ~ShardableSink() = default;

  /// A fresh sink of the same type/configuration, ready to consume one
  /// user's bracketed stream on a worker thread.
  [[nodiscard]] virtual std::unique_ptr<TraceSink> clone_shard() const = 0;

  /// Fold a completed shard (previously returned by this sink's
  /// clone_shard()) into this sink. Called serially, in user-id order.
  virtual void merge_from(TraceSink& shard) = 0;

  /// Account-plane hook (DESIGN.md §15): `user`'s stream is complete and
  /// its shard merged into this parent. Sinks with per-user rows collapse
  /// the user's row into running aggregates, spill its detail through the
  /// armed AccountSpill, and free it. The engine folds every merged user,
  /// in ascending user id, so double folds performed here are bit-identical
  /// to the ascending query-time folds over rows still pending. Sinks
  /// without per-user rows leave the no-op default.
  virtual void fold_user(UserId /*user*/) {}

  /// Arm the spill target the sink writes its detail rows through during
  /// fold_user, and reads them back from at query time. The engines call
  /// this on every run, before the study bracket opens. Sinks without
  /// per-user rows leave the no-op default.
  virtual void set_account_spill(energy::AccountSpill* /*spill*/) {}
};

/// The sink's shard interface, or nullptr if it opted out. (Template so this
/// header needs only a forward declaration of TraceSink — sink.h includes us
/// for TraceCollector.)
template <class Sink>
[[nodiscard]] ShardableSink* as_shardable(Sink* sink) {
  return dynamic_cast<ShardableSink*>(sink);
}

}  // namespace wildenergy::trace

// Resume decorators for serial (forward-only) streams.
//
// The execution engine (core/engine.h) resumes by dropping completed users
// from its task list before building shards. Streams consumed outside it —
// CSV/binary files fed through the CLI's `analyze`, a spilling store's
// capture — replay every user in order, so resuming needs stream-level
// surgery instead: UserSkipFilter swallows the
// brackets of users a checkpoint already covers, and CheckpointingSink counts
// the users that do complete and fires a snapshot callback every N of them.
// Stacked as source -> UserSkipFilter -> CheckpointingSink -> real sinks, the
// pair makes a killed-and-resumed serial run fold the exact event stream an
// uninterrupted run would have seen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "trace/sink.h"

namespace wildenergy::ckpt {

/// Drops the full bracket (begin/batches/end) of every user in the
/// completed set; everything else forwards untouched. Events arrive strictly
/// inside user brackets, so one flag per bracket suffices.
class UserSkipFilter final : public trace::TraceSink {
 public:
  UserSkipFilter(trace::TraceSink* downstream, std::vector<trace::UserId> completed)
      : downstream_(downstream), completed_(std::move(completed)) {
    std::sort(completed_.begin(), completed_.end());
  }

  void on_study_begin(const trace::StudyMeta& meta) override {
    downstream_->on_study_begin(meta);
  }
  void on_user_begin(trace::UserId user) override {
    skipping_ = std::binary_search(completed_.begin(), completed_.end(), user);
    if (skipping_) {
      ++skipped_users_;
      return;
    }
    downstream_->on_user_begin(user);
  }
  void on_batch(const trace::EventBatch& batch) override {
    if (!skipping_) downstream_->on_batch(batch);
  }
  void on_user_end(trace::UserId user) override {
    if (skipping_) {
      skipping_ = false;
      return;
    }
    downstream_->on_user_end(user);
  }
  void on_study_end() override { downstream_->on_study_end(); }

  /// Users whose brackets were dropped (RunStats::resumed_users).
  [[nodiscard]] std::uint64_t skipped_users() const { return skipped_users_; }

 private:
  trace::TraceSink* downstream_;
  std::vector<trace::UserId> completed_;
  bool skipping_ = false;
  std::uint64_t skipped_users_ = 0;
};

/// Forwards everything, tracks which users have completed, and fires
/// `on_checkpoint` after every `every_users` completed brackets. The restore
/// hook (if set) fires right after on_study_begin has propagated — i.e. after
/// downstream sinks reset themselves — which is the only moment restoring
/// serialized partials into them is sound.
class CheckpointingSink final : public trace::TraceSink {
 public:
  CheckpointingSink(trace::TraceSink* downstream, std::uint64_t every_users,
                    std::function<void()> on_checkpoint)
      : downstream_(downstream),
        every_users_(every_users == 0 ? 1 : every_users),
        on_checkpoint_(std::move(on_checkpoint)) {}

  void set_restore_hook(std::function<void(const trace::StudyMeta&)> hook) {
    restore_hook_ = std::move(hook);
  }

  void on_study_begin(const trace::StudyMeta& meta) override {
    downstream_->on_study_begin(meta);
    if (restore_hook_) restore_hook_(meta);
  }
  void on_user_begin(trace::UserId user) override { downstream_->on_user_begin(user); }
  void on_batch(const trace::EventBatch& batch) override { downstream_->on_batch(batch); }
  void on_user_end(trace::UserId user) override {
    downstream_->on_user_end(user);
    completed_.push_back(user);
    if (++since_checkpoint_ >= every_users_ && on_checkpoint_) {
      since_checkpoint_ = 0;
      on_checkpoint_();
    }
  }
  void on_study_end() override { downstream_->on_study_end(); }

  /// All users completed this run, in stream order. Snapshot callbacks read
  /// this to record progress; callers seed it with a resumed checkpoint's
  /// completed list so follow-up snapshots stay cumulative.
  [[nodiscard]] const std::vector<trace::UserId>& completed_users() const { return completed_; }
  void seed_completed(std::vector<trace::UserId> users) { completed_ = std::move(users); }

 private:
  trace::TraceSink* downstream_;
  std::uint64_t every_users_;
  std::function<void()> on_checkpoint_;
  std::function<void(const trace::StudyMeta&)> restore_hook_;
  std::vector<trace::UserId> completed_;
  std::uint64_t since_checkpoint_ = 0;
};

}  // namespace wildenergy::ckpt

#include "fault/plan.h"

#include <charconv>
#include <chrono>
#include <thread>
#include <vector>

#include "trace/batch.h"

namespace wildenergy::fault {

namespace {

/// The decorator wrap() returns: forwards every callback, and at the Nth one
/// stalls and/or throws per the spec. Each bracket counts as one callback and
/// each event inside a batch as one, so N means the same at every batch size.
class FaultySink final : public trace::TraceSink {
 public:
  FaultySink(const ShardFaultSpec& spec, bool armed, trace::TraceSink* downstream)
      : spec_(spec), armed_(armed), downstream_(downstream) {}

  void on_study_begin(const trace::StudyMeta& meta) override {
    tick();
    downstream_->on_study_begin(meta);
  }
  void on_user_begin(trace::UserId user) override {
    tick();
    downstream_->on_user_begin(user);
  }
  void on_batch(const trace::EventBatch& batch) override {
    tick(batch.size());
    downstream_->on_batch(batch);
  }
  void on_user_end(trace::UserId user) override {
    tick();
    downstream_->on_user_end(user);
  }
  void on_study_end() override {
    tick();
    downstream_->on_study_end();
  }

 private:
  /// Count `n` callbacks; fire if the Nth is among them.
  void tick(std::uint64_t n = 1) {
    const std::uint64_t first = callbacks_ + 1;
    callbacks_ += n;
    if (!armed_ || spec_.nth_callback < first || spec_.nth_callback > callbacks_) return;
    if (spec_.stall_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(spec_.stall_ms));
    }
    throw ShardFault("injected fault: user " + std::to_string(spec_.user) + " at callback " +
                     std::to_string(spec_.nth_callback));
  }

  ShardFaultSpec spec_;
  bool armed_;  ///< false once the user's attempts exceed fail_attempts
  trace::TraceSink* downstream_;
  std::uint64_t callbacks_ = 0;
};

}  // namespace

util::StatusOr<ShardFaultSpec> parse_shard_fault_spec(std::string_view text) {
  constexpr std::string_view kUsage =
      " (want user=U,nth=N[,attempts=A][,stall_ms=S])";
  ShardFaultSpec spec;
  bool saw_user = false;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string_view pair =
        text.substr(start, (comma == std::string_view::npos ? text.size() : comma) - start);
    start = comma == std::string_view::npos ? text.size() + 1 : comma + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return util::Status::invalid_argument("fault spec '" + std::string(text) +
                                            "': missing '=' in '" + std::string(pair) + "'" +
                                            std::string(kUsage));
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    std::uint64_t parsed = 0;
    const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), parsed);
    if (ec != std::errc{} || ptr != value.data() + value.size()) {
      return util::Status::invalid_argument("fault spec '" + std::string(text) + "': '" +
                                            std::string(value) + "' is not a non-negative integer" +
                                            std::string(kUsage));
    }
    if (key == "user") {
      spec.user = static_cast<trace::UserId>(parsed);
      saw_user = true;
    } else if (key == "nth") {
      spec.nth_callback = parsed;
    } else if (key == "attempts") {
      spec.fail_attempts = static_cast<unsigned>(parsed);
    } else if (key == "stall_ms") {
      spec.stall_ms = static_cast<unsigned>(parsed);
    } else {
      return util::Status::invalid_argument("fault spec '" + std::string(text) +
                                            "': unknown key '" + std::string(key) + "'" +
                                            std::string(kUsage));
    }
  }
  if (!saw_user) {
    return util::Status::invalid_argument("fault spec '" + std::string(text) +
                                          "': user=U is required" + std::string(kUsage));
  }
  if (spec.nth_callback == 0) {
    return util::Status::invalid_argument("fault spec '" + std::string(text) +
                                          "': nth must be >= 1" + std::string(kUsage));
  }
  return spec;
}

util::StatusOr<CheckpointFaultSpec> parse_checkpoint_fault_spec(std::string_view text) {
  constexpr std::string_view kUsage =
      " (want nth=N,kind=hard-stop|short-write|io-error[,truncate_to=B])";
  CheckpointFaultSpec spec;
  bool saw_kind = false;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string_view pair =
        text.substr(start, (comma == std::string_view::npos ? text.size() : comma) - start);
    start = comma == std::string_view::npos ? text.size() + 1 : comma + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return util::Status::invalid_argument("checkpoint fault spec '" + std::string(text) +
                                            "': missing '=' in '" + std::string(pair) + "'" +
                                            std::string(kUsage));
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    if (key == "kind") {
      if (value == "hard-stop") {
        spec.kind = CheckpointFaultKind::kHardStop;
      } else if (value == "short-write") {
        spec.kind = CheckpointFaultKind::kShortWrite;
      } else if (value == "io-error") {
        spec.kind = CheckpointFaultKind::kIoError;
      } else {
        return util::Status::invalid_argument("checkpoint fault spec '" + std::string(text) +
                                              "': unknown kind '" + std::string(value) + "'" +
                                              std::string(kUsage));
      }
      saw_kind = true;
      continue;
    }
    std::uint64_t parsed = 0;
    const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), parsed);
    if (ec != std::errc{} || ptr != value.data() + value.size()) {
      return util::Status::invalid_argument("checkpoint fault spec '" + std::string(text) +
                                            "': '" + std::string(value) +
                                            "' is not a non-negative integer" +
                                            std::string(kUsage));
    }
    if (key == "nth") {
      spec.nth_write = parsed;
    } else if (key == "truncate_to") {
      spec.truncate_to = parsed;
    } else {
      return util::Status::invalid_argument("checkpoint fault spec '" + std::string(text) +
                                            "': unknown key '" + std::string(key) + "'" +
                                            std::string(kUsage));
    }
  }
  if (!saw_kind) {
    return util::Status::invalid_argument("checkpoint fault spec '" + std::string(text) +
                                          "': kind=... is required" + std::string(kUsage));
  }
  if (spec.nth_write == 0) {
    return util::Status::invalid_argument("checkpoint fault spec '" + std::string(text) +
                                          "': nth must be >= 1" + std::string(kUsage));
  }
  return spec;
}

void FaultPlan::add(const ShardFaultSpec& spec) {
  const std::lock_guard<std::mutex> lock{mu_};
  faults_[spec.user] = spec;
}

void FaultPlan::add_checkpoint_fault(const CheckpointFaultSpec& spec) {
  const std::lock_guard<std::mutex> lock{mu_};
  checkpoint_faults_[spec.nth_write] = spec;
}

std::optional<CheckpointFaultSpec> FaultPlan::checkpoint_fault_for(
    std::uint64_t nth_write) const {
  const std::lock_guard<std::mutex> lock{mu_};
  const auto it = checkpoint_faults_.find(nth_write);
  if (it == checkpoint_faults_.end()) return std::nullopt;
  return it->second;
}

bool FaultPlan::has_fault_for(trace::UserId user) const {
  const std::lock_guard<std::mutex> lock{mu_};
  return faults_.count(user) > 0;
}

bool FaultPlan::empty() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return faults_.empty();
}

unsigned FaultPlan::attempts(trace::UserId user) const {
  const std::lock_guard<std::mutex> lock{mu_};
  const auto it = attempts_.find(user);
  return it == attempts_.end() ? 0 : it->second;
}

std::unique_ptr<trace::TraceSink> FaultPlan::wrap(trace::UserId user,
                                                  trace::TraceSink* downstream) {
  const std::lock_guard<std::mutex> lock{mu_};
  const auto it = faults_.find(user);
  if (it == faults_.end()) return nullptr;
  const unsigned attempt = ++attempts_[user];  // 1-based
  const bool armed = attempt <= it->second.fail_attempts;
  return std::make_unique<FaultySink>(it->second, armed, downstream);
}

}  // namespace wildenergy::fault

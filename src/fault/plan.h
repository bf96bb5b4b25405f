// FaultPlan: scripted shard/sink failures for exercising the engine's
// failure policies (core/pipeline.h).
//
// A plan is a set of per-user fault specs. When the engine (core/engine.h)
// builds a shard for a user the plan covers, it wraps the shard's entry sink in a
// FaultySink that throws ShardFault (and/or stalls) at the Nth sink callback
// — but only for the first `fail_attempts` attempts, so retry policies can
// be shown to recover deterministically. Attempts are counted by the plan
// (wrap() is one attempt), making "fails once, succeeds on retry" a pure
// function of the plan, not of timing.
//
// Usable from tests, the CLI (--inject-fault), and the fault bench.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "trace/sink.h"
#include "util/status.h"

namespace wildenergy::fault {

/// The exception an injected fault raises inside a shard.
class ShardFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ShardFaultSpec {
  trace::UserId user = 0;
  std::uint64_t nth_callback = 1;  ///< 1-based sink callback index to fail at
  unsigned fail_attempts = 1;      ///< throw on this many attempts, then pass
  unsigned stall_ms = 0;           ///< sleep this long at the Nth callback first
};

/// Parse "user=U,nth=N[,attempts=A][,stall_ms=S]" (any key order; user is
/// required). Returns kInvalidArgument with a usage hint on malformed specs.
[[nodiscard]] util::StatusOr<ShardFaultSpec> parse_shard_fault_spec(std::string_view text);

/// What goes wrong at a scripted checkpoint write (the kill-and-recover
/// harness). Faults key on the Nth write attempt of one run.
enum class CheckpointFaultKind : std::uint8_t {
  kShortWrite,  ///< persist only the first `truncate_to` bytes (torn write)
  kIoError,     ///< the write fails cleanly (ENOSPC-style), run continues
  kHardStop,    ///< throw ShardFault right after the write lands (simulated kill)
};

struct CheckpointFaultSpec {
  std::uint64_t nth_write = 1;  ///< 1-based checkpoint write attempt to hit
  CheckpointFaultKind kind = CheckpointFaultKind::kHardStop;
  std::uint64_t truncate_to = 0;  ///< kShortWrite: payload bytes that land
};

/// Parse "nth=N,kind=hard-stop|short-write|io-error[,truncate_to=B]".
[[nodiscard]] util::StatusOr<CheckpointFaultSpec> parse_checkpoint_fault_spec(
    std::string_view text);

class FaultPlan {
 public:
  void add(const ShardFaultSpec& spec);
  void add_checkpoint_fault(const CheckpointFaultSpec& spec);

  /// The fault scripted for the Nth (1-based) checkpoint write, if any.
  /// Thread-safe; the returned copy is the caller's to act on.
  [[nodiscard]] std::optional<CheckpointFaultSpec> checkpoint_fault_for(
      std::uint64_t nth_write) const;

  [[nodiscard]] bool has_fault_for(trace::UserId user) const;
  [[nodiscard]] bool empty() const;

  /// Number of times wrap() has been called for this user (== attempts the
  /// engine has made to run the user's shard).
  [[nodiscard]] unsigned attempts(trace::UserId user) const;

  /// Decorate `downstream` with this user's fault for one shard attempt.
  /// Counts the attempt; returns nullptr if the plan has no fault for the
  /// user. The returned sink forwards every callback to `downstream` and
  /// stalls/throws per the spec. Thread-safe to call, though the engine only
  /// calls it from the coordinating thread.
  [[nodiscard]] std::unique_ptr<trace::TraceSink> wrap(trace::UserId user,
                                                       trace::TraceSink* downstream);

 private:
  mutable std::mutex mu_;
  std::map<trace::UserId, ShardFaultSpec> faults_;
  std::map<trace::UserId, unsigned> attempts_;
  std::map<std::uint64_t, CheckpointFaultSpec> checkpoint_faults_;
};

}  // namespace wildenergy::fault

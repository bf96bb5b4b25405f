// Status / StatusOr: how errors cross module boundaries.
//
// The ingestion readers, the fault-injection layer, and the sharded engine
// all need to hand failures upward without exceptions leaking across the
// sink protocol or ad-hoc {bool ok; string error} structs multiplying (one
// per reader, as they did before PR 3). A Status is a code plus a
// human-readable message; StatusOr<T> carries either a value or the Status
// explaining why there is none. Deliberately tiny — no payloads, no
// stack traces — because every consumer in this codebase either prints the
// message or branches on ok().
//
// The message lives behind a pointer that is null when it is empty, so an
// OK Status — and so every OK StatusOr, which the binary decoders build
// once per decoded field — constructs and destroys no std::string. Copies
// stay deep.
#pragma once

#include <cassert>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace wildenergy::util {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,     ///< malformed input the caller controls (CLI flags, specs)
  kDataLoss,            ///< corrupt or truncated data detected at a boundary
  kFailedPrecondition,  ///< stream-protocol invariant violated
  kAborted,             ///< work abandoned (e.g. a shard exhausted its retries)
  kNotFound,            ///< named thing does not exist (file, user, app)
  kInternal,            ///< invariant we own was broken
};

[[nodiscard]] constexpr std::string_view to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid argument";
    case StatusCode::kDataLoss: return "data loss";
    case StatusCode::kFailedPrecondition: return "failed precondition";
    case StatusCode::kAborted: return "aborted";
    case StatusCode::kNotFound: return "not found";
    case StatusCode::kInternal: return "internal";
  }
  return "?";
}

class Status {
 public:
  /// Default status is OK; error statuses carry a non-empty message.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(message.empty() ? nullptr
                                 : std::make_unique<std::string>(std::move(message))) {}
  Status(const Status& other)
      : code_(other.code_),
        message_(other.message_ ? std::make_unique<std::string>(*other.message_) : nullptr) {}
  Status(Status&&) noexcept = default;
  Status& operator=(const Status& other) {
    if (this != &other) *this = Status(other);
    return *this;
  }
  Status& operator=(Status&&) noexcept = default;

  [[nodiscard]] static Status ok_status() { return {}; }
  [[nodiscard]] static Status invalid_argument(std::string m) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  [[nodiscard]] static Status data_loss(std::string m) {
    return {StatusCode::kDataLoss, std::move(m)};
  }
  [[nodiscard]] static Status failed_precondition(std::string m) {
    return {StatusCode::kFailedPrecondition, std::move(m)};
  }
  [[nodiscard]] static Status aborted(std::string m) {
    return {StatusCode::kAborted, std::move(m)};
  }
  [[nodiscard]] static Status not_found(std::string m) {
    return {StatusCode::kNotFound, std::move(m)};
  }
  [[nodiscard]] static Status internal(std::string m) {
    return {StatusCode::kInternal, std::move(m)};
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const {
    static const std::string kEmpty;
    return message_ ? *message_ : kEmpty;
  }

  /// "ok" or "<code>: <message>" — the one-line diagnostic the CLI prints.
  [[nodiscard]] std::string to_string() const {
    if (ok()) return "ok";
    return std::string(util::to_string(code_)) + ": " + message();
  }

  /// Keep the first error: assigning onto an error status is a no-op, so a
  /// loop can `status.update(step())` and report the root cause at the end.
  void update(Status other) {
    if (ok()) *this = std::move(other);
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message() == b.message();
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::unique_ptr<std::string> message_;  ///< null when the message is empty
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.to_string();
}

/// A T or the Status explaining its absence. value() asserts ok(); callers
/// branch on ok() first (all uses in this codebase are two-line unwraps).
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "StatusOr constructed from OK status without a value");
  }

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] T& value() {
    assert(ok());
    return value_;
  }
  [[nodiscard]] const T& value() const {
    assert(ok());
    return value_;
  }
  [[nodiscard]] T& operator*() { return value(); }
  [[nodiscard]] const T& operator*() const { return value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

 private:
  Status status_;
  T value_{};
};

}  // namespace wildenergy::util

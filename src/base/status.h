// omqc: Containment for Rule-Based Ontology-Mediated Queries (PODS'18).
//
// Status and Result<T>: exception-free error propagation for all fallible
// library operations, in the style used by Arrow / RocksDB.

#ifndef OMQC_BASE_STATUS_H_
#define OMQC_BASE_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace omqc {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  /// Malformed input (parse error, ill-formed tgd, arity mismatch...).
  kInvalidArgument,
  /// A resource budget (chase depth, rewriting size, witness search,
  /// governor memory budget) was exhausted before an exact
  /// answer was reached.
  kResourceExhausted,
  /// The request's wall-clock deadline passed before completion
  /// (ResourceGovernor; see base/governor.h).
  kDeadlineExceeded,
  /// The request was cancelled through its CancellationToken before
  /// completion (base/governor.h).
  kCancelled,
  /// The requested combination is not supported (e.g. asking for a UCQ
  /// rewriting of a non-UCQ-rewritable OMQ language).
  kUnsupported,
  /// An internal invariant was violated; indicates a library bug.
  kInternal,
  /// A lookup failed (unknown predicate, missing disjunct...).
  kNotFound,
};

/// Human-readable name of a StatusCode.
const char* StatusCodeToString(StatusCode code);

/// A success-or-error value. Cheap to copy on the OK path.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value of type T or an error Status. Never both.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error status. `status.ok()` is a bug.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Access the value. Undefined if !ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds.
};

/// Propagates a non-OK Status from an expression returning Status.
#define OMQC_RETURN_IF_ERROR(expr)           \
  do {                                       \
    ::omqc::Status _st = (expr);             \
    if (!_st.ok()) return _st;               \
  } while (0)

/// Evaluates a Result<T> expression and binds its value, propagating errors.
#define OMQC_ASSIGN_OR_RETURN(lhs, expr)     \
  auto OMQC_CONCAT_(_res_, __LINE__) = (expr);          \
  if (!OMQC_CONCAT_(_res_, __LINE__).ok())              \
    return OMQC_CONCAT_(_res_, __LINE__).status();      \
  lhs = std::move(OMQC_CONCAT_(_res_, __LINE__)).value()

#define OMQC_CONCAT_INNER_(a, b) a##b
#define OMQC_CONCAT_(a, b) OMQC_CONCAT_INNER_(a, b)

}  // namespace omqc

#endif  // OMQC_BASE_STATUS_H_

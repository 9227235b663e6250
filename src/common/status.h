#ifndef DAAKG_COMMON_STATUS_H_
#define DAAKG_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace daakg {

// Error codes loosely modeled after absl::StatusCode. Only the codes the
// library actually produces are defined.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kIoError = 7,
  kUnimplemented = 8,
};

// Returns a human-readable name for `code`, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

// Status carries the result of an operation that can fail. The library does
// not use exceptions (see DESIGN.md); fallible functions return Status or
// StatusOr<T>.
class Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Returns e.g. "InvalidArgument: dimension must be positive".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// Convenience constructors.
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status OutOfRangeError(std::string message);
Status FailedPreconditionError(std::string message);
Status InternalError(std::string message);
Status IoError(std::string message);
Status UnimplementedError(std::string message);

// StatusOr<T> holds either a value of type T or a non-OK Status.
template <typename T>
class StatusOr {
 public:
  // Intentionally implicit so functions can `return value;` or
  // `return SomeError(...);` directly.
  StatusOr(const T& value) : rep_(value) {}          // NOLINT
  StatusOr(T&& value) : rep_(std::move(value)) {}    // NOLINT
  StatusOr(Status status) : rep_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(rep_); }

  // OK while a value is held. Returned by value: a reference to a
  // function-local static OK status trips a -Wmaybe-uninitialized false
  // positive of GCC 12 on the variant's destructor, which fails a
  // -DDAAKG_WERROR=ON build.
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(rep_);
  }

  // Precondition: ok().
  const T& value() const& { return std::get<T>(rep_); }
  T& value() & { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> rep_;
};

}  // namespace daakg

// Evaluates `expr` (a Status); returns it from the enclosing function if not
// OK.
#define DAAKG_RETURN_IF_ERROR(expr)                \
  do {                                             \
    ::daakg::Status _daakg_status = (expr);        \
    if (!_daakg_status.ok()) return _daakg_status; \
  } while (0)

// Evaluates `rexpr` (a StatusOr<T>); assigns the value to `lhs` or returns
// the error from the enclosing function.
#define DAAKG_ASSIGN_OR_RETURN(lhs, rexpr)                   \
  DAAKG_ASSIGN_OR_RETURN_IMPL_(                              \
      DAAKG_STATUS_CONCAT_(_daakg_statusor, __LINE__), lhs, rexpr)

#define DAAKG_ASSIGN_OR_RETURN_IMPL_(var, lhs, rexpr) \
  auto var = (rexpr);                                 \
  if (!var.ok()) return var.status();                 \
  lhs = std::move(var).value()

#define DAAKG_STATUS_CONCAT_(a, b) DAAKG_STATUS_CONCAT_IMPL_(a, b)
#define DAAKG_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // DAAKG_COMMON_STATUS_H_

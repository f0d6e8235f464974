/**
 * @file
 * Recoverable-error layer: Error / Status / Expected<T>.
 *
 * The contract-check layer (check.hpp) aborts on violated invariants —
 * the right response to bugs *inside* the library.  Boundary paths
 * (deserialisation of untrusted streams, user-supplied options, engine
 * entry points, the MC sample guard) instead return these values, so a
 * serving process can reject one bad request without dying:
 *
 *  - Error:       an error code plus a human-readable message and a
 *                 chain of context frames added on the way up.
 *  - Status:      alias of Error used when a function returns "ok or
 *                 an error" with no payload.
 *  - Expected<T>: either a T or an Error (a minimal std::expected
 *                 stand-in; the repo targets C++20).
 *
 * Policy (DESIGN.md, "Fault tolerance & error handling"): boundary
 * code returns Error; hot-path invariants stay FASTBCNN_DCHECK;
 * internal bugs stay panic().  There are no fatal() wrappers around
 * the try* entry points: callers that cannot recover unwrap with
 * .value() (which panics on an error) or fatal() themselves.
 */

#ifndef FASTBCNN_COMMON_ERROR_HPP
#define FASTBCNN_COMMON_ERROR_HPP

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "check.hpp"

namespace fastbcnn {

/** Coarse classification of recoverable errors. */
enum class ErrorCode {
    Ok = 0,
    InvalidArgument,   ///< caller-supplied value out of contract
    ParseError,        ///< malformed serialized stream
    Truncated,         ///< stream ended before the advertised payload
    NotFound,          ///< named entity absent (layer, node, ...)
    Mismatch,          ///< counts / shapes disagree with the target
    NonFinite,         ///< NaN / Inf where finite values are required
    FaultInjected,     ///< a FaultPlan deliberately failed this path
    SampleFailed,      ///< an MC sample died for a non-injected reason
    QuorumNotMet,      ///< surviving samples below the required quorum
    DeadlineExceeded,  ///< wall-clock budget expired
    ResourceExhausted, ///< a bounded resource (queue, pool) is full
    Cancelled,         ///< the caller abandoned the request
    Unavailable,       ///< the component is shut down / not accepting
    IoError,           ///< underlying stream reported failure
    DataLoss,          ///< stored data failed an integrity check
    Internal           ///< caught exception / unclassified failure
};

/** @return a stable human-readable name for @p code. */
const char *errorCodeName(ErrorCode code);

/**
 * A recoverable error: code + message + context chain.
 *
 * A default-constructed Error is "ok".  Context frames are added with
 * withContext() as the error propagates outward; toString() renders
 * "[Code] outer: inner: message".
 */
class [[nodiscard]] Error
{
  public:
    /** Construct an ok (no-error) value. */
    Error() = default;

    /** Construct an error; @p code must not be ErrorCode::Ok. */
    Error(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
        FASTBCNN_CHECK(code != ErrorCode::Ok,
                       "ErrorCode::Ok carries no message");
    }

    /** @return the ok value (synonym of Error()). */
    static Error ok() { return {}; }

    /** @return true when this represents success. */
    bool isOk() const { return code_ == ErrorCode::Ok; }

    /** @return the error code (Ok for success). */
    ErrorCode code() const { return code_; }

    /** @return the original (innermost) message. */
    const std::string &message() const { return message_; }

    /** @return context frames, outermost first. */
    const std::vector<std::string> &context() const { return context_; }

    /**
     * Prepend a context frame (no-op on ok).  Chainable:
     * `return std::move(err).withContext("loading checkpoint");`
     */
    Error &withContext(std::string frame) &
    {
        if (!isOk())
            context_.insert(context_.begin(), std::move(frame));
        return *this;
    }
    Error &&withContext(std::string frame) &&
    {
        return std::move(this->withContext(std::move(frame)));
    }

    /** @return "[Code] ctx: ctx: message", or "ok". */
    std::string toString() const;

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
    std::vector<std::string> context_;
};

/** A function result that is either ok or an Error. */
using Status = Error;

/** printf-style Error constructor. */
Error errorf(ErrorCode code, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/**
 * Either a value or an Error.  Implicitly constructible from both, so
 * `return makeThing();` and `return errorf(...);` both work.
 * Accessing the wrong alternative is a contract violation (panic).
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : v_(std::in_place_index<0>, std::move(value)) {}

    Expected(Error error) : v_(std::in_place_index<1>, std::move(error))
    {
        FASTBCNN_CHECK(!std::get<1>(v_).isOk(),
                       "Expected constructed from an ok Error");
    }

    /** @return true when a value is held. */
    bool hasValue() const { return v_.index() == 0; }
    explicit operator bool() const { return hasValue(); }

    /** @return the value; panics when holding an error. */
    const T &value() const &
    {
        checkHasValue();
        return std::get<0>(v_);
    }
    T &value() &
    {
        checkHasValue();
        return std::get<0>(v_);
    }
    T &&value() &&
    {
        checkHasValue();
        return std::get<0>(std::move(v_));
    }

    /** @return the held value, or @p fallback when holding an error. */
    T valueOr(T fallback) const &
    {
        return hasValue() ? std::get<0>(v_) : std::move(fallback);
    }

    /** @return the error; panics when holding a value. */
    const Error &error() const
    {
        FASTBCNN_CHECK(!hasValue(),
                       "Expected::error() on a value result");
        return std::get<1>(v_);
    }

    /** Move the error out (for re-wrapping with extra context). */
    Error takeError() &&
    {
        FASTBCNN_CHECK(!hasValue(),
                       "Expected::takeError() on a value result");
        return std::get<1>(std::move(v_));
    }

  private:
    void checkHasValue() const
    {
        if (!hasValue()) {
            panic("Expected::value() on error: %s",
                  std::get<1>(v_).toString().c_str());
        }
    }

    std::variant<T, Error> v_;
};

} // namespace fastbcnn

/** Propagate a non-ok Status to the caller. */
#define FASTBCNN_RETURN_IF_ERROR(expr)                                     \
    do {                                                                   \
        ::fastbcnn::Status fberr_status_ = (expr);                         \
        if (!fberr_status_.isOk())                                         \
            return fberr_status_;                                          \
    } while (0)

#endif // FASTBCNN_COMMON_ERROR_HPP

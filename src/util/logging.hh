/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a library bug), fatal() is for user errors (bad
 * configuration or arguments), warn()/inform() are non-fatal status
 * channels. All messages go to stderr so table output on stdout stays
 * machine-parseable. fatal() itself prints nothing: the one catch that
 * ends the process prints the error with reportFatal(), so an error a
 * caller handles (a failed config in a batch, an invalid request) never
 * shows as a `fatal:` line.
 */

#ifndef GPSM_UTIL_LOGGING_HH
#define GPSM_UTIL_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace gpsm
{

/** Thrown by fatal(); carries the formatted user-facing message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Thrown by panic(); indicates a gpsm-internal invariant violation. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/**
 * Thrown when a cooperative cancellation flag trips mid-execution
 * (the experiment watchdog's timeout path). Neither a user error nor
 * a gpsm bug: harness code catches it and reports a structured
 * timeout, so it deliberately shares no base with FatalError or
 * PanicError beyond std::exception.
 */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

namespace detail
{

/** printf-style formatting into a std::string. */
std::string vformat(const char *fmt, std::va_list ap);
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

void emit(const char *prefix, const std::string &msg);

} // namespace detail

/**
 * Abort the current operation on a condition caused by the user (bad
 * configuration, invalid arguments) by throwing FatalError. Prints
 * nothing; see reportFatal().
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print "fatal: <what>" to stderr: the exit path of a front end. */
void reportFatal(const FatalError &e);

/**
 * Report an internal invariant violation (a gpsm bug) and throw
 * PanicError. Never use for conditions a caller can trigger legally.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report suspicious-but-survivable conditions to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence inform() (warn/fatal/panic always print). */
void setQuiet(bool quiet);
bool quiet();

/**
 * Internal-invariant check that survives NDEBUG builds.
 *
 * Use for conditions whose violation means gpsm itself is broken;
 * evaluates the condition exactly once.
 */
#define GPSM_ASSERT(cond, ...)                                            \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::gpsm::panic(                                                \
                "assertion '%s' failed at %s:%d %s", #cond, __FILE__,     \
                __LINE__, ::gpsm::detail::format("" __VA_ARGS__).c_str());\
        }                                                                 \
    } while (0)

} // namespace gpsm

#endif // GPSM_UTIL_LOGGING_HH

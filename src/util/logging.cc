/**
 * @file
 * Implementation of the logging helpers.
 */

#include "util/logging.hh"

#include <atomic>
#include <cstdarg>
#include <vector>

namespace gpsm
{

namespace
{

std::atomic<bool> quietFlag{false};

} // anonymous namespace

namespace detail
{

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return std::string(fmt);

    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
format(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    return s;
}

void
emit(const char *prefix, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
}

} // namespace detail

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = detail::vformat(fmt, ap);
    va_end(ap);
    throw FatalError(msg);
}

void
reportFatal(const FatalError &e)
{
    detail::emit("fatal", e.what());
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = detail::vformat(fmt, ap);
    va_end(ap);
    detail::emit("panic", msg);
    throw PanicError(msg);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = detail::vformat(fmt, ap);
    va_end(ap);
    detail::emit("warn", msg);
}

void
inform(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = detail::vformat(fmt, ap);
    va_end(ap);
    detail::emit("info", msg);
}

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

bool
quiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

} // namespace gpsm

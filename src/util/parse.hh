/**
 * @file
 * Strict numeric parsing for CLI arguments and environment variables.
 *
 * The strto* family silently accepts garbage ("banana" parses as 0,
 * "12cows" parses as 12), which turns a typo'd flag into a perfectly
 * plausible — and wrong — run. These helpers demand that the whole
 * string is consumed, reject range overflow, and call fatal() with the
 * offending flag name so the process exits nonzero with a clear
 * message instead of running the wrong experiment.
 */

#ifndef GPSM_UTIL_PARSE_HH
#define GPSM_UTIL_PARSE_HH

#include <cstdint>
#include <string>

namespace gpsm
{

/**
 * Parse @p text as a base-10 unsigned 64-bit integer. @p what names
 * the flag for the error message ("--jobs"). Leading/trailing whitespace, empty strings,
 * signs, partial parses and overflow are all fatal().
 */
std::uint64_t parseU64(const std::string &text, const char *what);

/** parseU64 narrowed to unsigned; overflow past UINT_MAX is fatal(). */
unsigned parseUnsigned(const std::string &text, const char *what);

/** Strict signed 64-bit variant (accepts a leading '-'). */
std::int64_t parseI64(const std::string &text, const char *what);

/** Strict finite double (rejects "nan"/"inf" and partial parses). */
double parseDouble(const std::string &text, const char *what);

} // namespace gpsm

#endif // GPSM_UTIL_PARSE_HH

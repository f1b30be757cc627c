/**
 * @file
 * Unit formatting helpers.
 */

#include "util/units.hh"

#include <cstdio>

namespace gpsm
{

std::string
formatBytes(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= GiB) {
        std::snprintf(buf, sizeof(buf), "%.2fGiB",
                      static_cast<double>(bytes) / GiB);
    } else if (bytes >= MiB) {
        std::snprintf(buf, sizeof(buf), "%.2fMiB",
                      static_cast<double>(bytes) / MiB);
    } else if (bytes >= KiB) {
        std::snprintf(buf, sizeof(buf), "%.2fKiB",
                      static_cast<double>(bytes) / KiB);
    } else {
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(bytes));
    }
    return buf;
}

std::string
formatSeconds(double seconds)
{
    // Zero and negatives used to fall into the "us" branch and render
    // as "0.000us" / "-3000000.000us"; pin zero and mirror negatives
    // around the positive scale selection instead.
    if (seconds == 0.0)
        return "0.000s";
    if (seconds < 0.0) {
        std::string out = "-";
        out += formatSeconds(-seconds);
        return out;
    }
    char buf[32];
    if (seconds >= 1.0)
        std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
    else if (seconds >= 1e-3)
        std::snprintf(buf, sizeof(buf), "%.3fms", seconds * 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.3fus", seconds * 1e6);
    return buf;
}

} // namespace gpsm

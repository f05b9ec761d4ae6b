/**
 * @file
 * Integer flag values for the command-line front ends (camj_sweep,
 * camj_serve, camj_client): one range-checked parser, so no flag is
 * read into a narrower field than it was checked against.
 */

#ifndef CAMJ_COMMON_CLI_H
#define CAMJ_COMMON_CLI_H

#include <limits>
#include <optional>
#include <string_view>
#include <utility>

namespace camj
{

/**
 * The integer @p text spells, when it is a whole base-10 integer in
 * [@p min, @p max]; nullopt when it is not one (empty, a sign alone,
 * trailing characters), does not fit a long long, or lies outside the
 * range.
 */
std::optional<long long> parseIntInRange(std::string_view text,
                                         long long min, long long max);

/**
 * parseIntInRange for the value @p text of command-line flag @p flag.
 * A value it refuses is a usage error: prints "error: <flag> wants
 * ..." naming the range and exits with status 2.
 */
long long parseFlagInt(const char *flag, const char *text,
                       long long min, long long max);

/**
 * The value of integer flag @p flag for a field of type T that takes
 * [@p min, @p max] (by default every non-negative T), as
 * parseFlagInt reads it: a front end calls it while reading its
 * arguments, so a refused value exits 2 before any file, socket or
 * daemon is opened.
 */
template <typename T>
T
parseFlag(const char *flag, const char *text, T min = 0,
          T max = std::numeric_limits<T>::max())
{
    constexpr long long kLongest = std::numeric_limits<long long>::max();
    const long long hi =
        std::cmp_less(max, kLongest) ? static_cast<long long>(max)
                                     : kLongest;
    return static_cast<T>(
        parseFlagInt(flag, text, static_cast<long long>(min), hi));
}

} // namespace camj

#endif // CAMJ_COMMON_CLI_H

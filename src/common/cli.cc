#include "common/cli.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace camj
{

std::optional<long long>
parseIntInRange(std::string_view text, long long min, long long max)
{
    long long value = 0;
    const char *end = text.data() + text.size();
    const std::from_chars_result parsed =
        std::from_chars(text.data(), end, value);
    if (parsed.ec != std::errc() || parsed.ptr != end || value < min ||
        value > max)
        return std::nullopt;
    return value;
}

long long
parseFlagInt(const char *flag, const char *text, long long min,
             long long max)
{
    if (const std::optional<long long> value =
            parseIntInRange(text, min, max))
        return *value;
    std::string range;
    if (max < std::numeric_limits<long long>::max())
        range = "an integer in [" + std::to_string(min) + ", " +
                std::to_string(max) + "]";
    else if (min == 0)
        range = "a non-negative integer";
    else
        range = "an integer >= " + std::to_string(min);
    std::fprintf(stderr, "error: %s wants %s, got '%s'\n", flag,
                 range.c_str(), text);
    std::exit(2);
}

} // namespace camj

#include "common/logging.h"

#include <cstdio>
#include <iterator>
#include <vector>

namespace camj
{

namespace
{
bool loggingEnabled = true;

constexpr const char *kRuleCodes[] = {
    "CAMJ-E001", "CAMJ-E002", "CAMJ-E003", "CAMJ-E004", "CAMJ-E005",
    "CAMJ-E006", "CAMJ-E007", "CAMJ-E008", "CAMJ-E009", "CAMJ-E010",
    "CAMJ-E011", "CAMJ-E012", "CAMJ-E013", "CAMJ-E014", "CAMJ-E015",
    "CAMJ-E016", "CAMJ-E017", "CAMJ-E018", "CAMJ-D001", "CAMJ-D002",
    "CAMJ-D003", "CAMJ-D004",
};
static_assert(std::size(kRuleCodes) ==
              static_cast<size_t>(Rule::D004) + 1);
} // namespace

std::string
vstrprintf(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return fmt;

    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

std::string
strprintf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    return s;
}

const char *
ruleCode(Rule rule)
{
    return kRuleCodes[static_cast<size_t>(rule)];
}

std::optional<Rule>
ruleFromCode(std::string_view code)
{
    for (size_t i = 0; i < std::size(kRuleCodes); ++i) {
        if (code == kRuleCodes[i])
            return static_cast<Rule>(i);
    }
    return std::nullopt;
}

const char *
ConfigError::message() const
{
    constexpr std::string_view kPrefix = "fatal: ";
    const char *text = what();
    return std::string_view(text).starts_with(kPrefix)
               ? text + kPrefix.size()
               : text;
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    throw ConfigError("fatal: " + msg);
}

void
fatal(Rule rule, const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    throw ConfigError("fatal: " + msg, rule);
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    throw InternalError("panic: " + msg);
}

void
warn(const char *fmt, ...)
{
    if (!loggingEnabled)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (!loggingEnabled)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
setLoggingEnabled(bool enabled)
{
    loggingEnabled = enabled;
}

} // namespace camj

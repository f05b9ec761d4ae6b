#include "common/logging.h"

#include <cstdio>
#include <iterator>

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

/** Append printf-style @p fmt to @p out, or @p fmt itself when it
 *  cannot be formatted. */
void
appendVprintf(std::string &out, const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0) {
        out += fmt;
        return;
    }
    const size_t at = out.size();
    out.resize(at + static_cast<size_t>(len));
    // vsnprintf writes its terminator into the string's own.
    std::vsnprintf(out.data() + at, static_cast<size_t>(len) + 1, fmt,
                   args);
}

} // namespace

std::string
vstrprintf(const char *fmt, std::va_list args)
{
    std::string s;
    appendVprintf(s, fmt, args);
    return s;
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

ConfigError
configError(Rule rule, const char *fmt, ...)
{
    std::string text = "fatal: ";
    std::va_list args;
    va_start(args, fmt);
    appendVprintf(text, fmt, args);
    va_end(args);
    return ConfigError(text, rule);
}

void
fatal(const char *fmt, ...)
{
    std::string text = "fatal: ";
    std::va_list args;
    va_start(args, fmt);
    appendVprintf(text, fmt, args);
    va_end(args);
    throw ConfigError(text);
}

void
fatal(Rule rule, const char *fmt, ...)
{
    std::string text = "fatal: ";
    std::va_list args;
    va_start(args, fmt);
    appendVprintf(text, fmt, args);
    va_end(args);
    throw ConfigError(text, rule);
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

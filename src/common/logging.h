/**
 * @file
 * Error reporting in the gem5 style, adapted for a library.
 *
 * gem5 distinguishes fatal() (the user's fault: bad configuration,
 * invalid arguments) from panic() (the simulator's fault: a broken
 * internal invariant). Because CamJ is a library that is also driven
 * from unit tests, both report through exceptions instead of
 * terminating the process:
 *
 *   - fatal(...)  throws ConfigError  — the design description is
 *     invalid (mismatched signal domains, stalls, cycles in the DAG...).
 *     fatal(Rule::E013, ...) names the docs/lint_rules.md code the
 *     error falls under; every fatal() a spec document can reach
 *     names one, so a failure explains itself without re-reading
 *     its text.
 *   - panic(...)  throws InternalError — a CamJ bug.
 *   - warn(...) / inform(...) print to stderr/stdout and continue.
 */

#ifndef CAMJ_COMMON_LOGGING_H
#define CAMJ_COMMON_LOGGING_H

#include <cstdarg>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace camj
{

/**
 * A rule code of the docs/lint_rules.md catalogue: Rule::E013 is
 * "CAMJ-E013". E codes name the static rule that catches the same
 * defect, D001/D002 the failures only simulation finds, D003
 * everything uncoded (CLI, service and I/O errors), and D004 a
 * result number that is not finite. Append only, like the
 * catalogue.
 */
enum class Rule : unsigned char
{
    E001, E002, E003, E004, E005, E006, E007, E008, E009,
    E010, E011, E012, E013, E014, E015, E016, E017, E018,
    D001, D002, D003, D004,
};

/** The catalogue code of @p rule ("CAMJ-E013"). */
const char *ruleCode(Rule rule);

/** The rule whose code is @p code; nullopt for any other text. */
std::optional<Rule> ruleFromCode(std::string_view code);

/** Raised by fatal(): the user-supplied design description is invalid. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &what, Rule rule = Rule::D003)
        : std::runtime_error(what), rule_(rule) {}

    /** The catalogue rule the error falls under. */
    Rule rule() const { return rule_; }

    /** ruleCode(rule()): "CAMJ-E013". */
    const char *code() const { return ruleCode(rule_); }

    /** what() without the "fatal: " prefix fatal() gives it: the text
     *  an error that wraps this one quotes, so the wrapped message
     *  reads "fatal:" once. */
    const char *message() const;

  private:
    Rule rule_;
};

/** Raised by panic(): an internal CamJ invariant was violated. */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &what)
        : std::logic_error(what) {}
};

/** printf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, std::va_list args);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * The ConfigError fatal(rule, ...) throws, built without throwing it:
 * for a check whose failure is a verdict its caller reports rather
 * than unwinds (the Timing stage's D001 and D002), with the text and
 * rule the throw would carry.
 */
ConfigError configError(Rule rule, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/**
 * Report a user configuration error no catalogue rule covers (its
 * code is CAMJ-D003). Never returns.
 *
 * @throws ConfigError always.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a user configuration error under catalogue rule @p rule.
 * Never returns.
 *
 * @throws ConfigError always, carrying @p rule.
 */
[[noreturn]] void fatal(Rule rule, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/**
 * Report an internal invariant violation. Never returns.
 *
 * @throws InternalError always.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning for questionable-but-survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress or restore warn()/inform() output (quiet test runs). */
void setLoggingEnabled(bool enabled);

} // namespace camj

#endif // CAMJ_COMMON_LOGGING_H

/**
 * @file
 * SpecAnalyzer: rule-based static analysis of DesignSpec documents.
 *
 * Every check that today fires only *dynamically* — as a ConfigError
 * thrown from materialize() or from an EvalPipeline stage — is
 * re-implemented here as a pure function of the spec document, plus
 * lints the engine never reports (dead components, suspicious
 * magnitudes, unknown/deprecated JSON keys). The analyzer never
 * materializes: it builds at most value-type Stage objects (cheap
 * shape arithmetic) and a static component-kind -> signal-domain
 * table. That does not make it cheap next to simulation: with the
 * cycle sim answered in closed form, analyzing a paper study costs
 * more than materializing and evaluating it (14-83 us against 4-33 us
 * per study, best of 50 on one core of a 4-core x86 container). The
 * rule catalogue (docs/lint_rules.md) is registered by the
 * constructor.
 */

#ifndef CAMJ_ANALYSIS_ANALYZER_H
#define CAMJ_ANALYSIS_ANALYZER_H

#include <functional>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analog/domain.h"
#include "spec/grid.h"
#include "spec/json.h"
#include "spec/spec.h"

namespace camj::analysis
{

/** One registered analysis rule. */
struct AnalysisRule
{
    /** Short slug ("dangling-reference"). */
    std::string name;
    /** Primary code the rule emits ("CAMJ-E003"); a rule may emit
     *  related codes too (the analog-chain rule emits E010/E011/W003). */
    std::string code;
    /** Append findings for @p spec. Must not throw. */
    std::function<void(const spec::DesignSpec &spec,
                       std::vector<Diagnostic> &out)>
        check;
};

/** The static analyzer: the rule catalogue run over a DesignSpec. */
class SpecAnalyzer
{
  public:
    /** Registers the built-in rule catalogue. */
    SpecAnalyzer();

    const std::vector<AnalysisRule> &rules() const { return rules_; }

    /** Run every rule; diagnostics in registration order. */
    std::vector<Diagnostic> analyze(const spec::DesignSpec &spec) const;

    /**
     * Document-level analysis: unknown/deprecated-key lint over the
     * raw JSON tree, then (when the document parses) the full spec
     * rule set. A parse failure becomes a single error diagnostic
     * carrying the thrown rule code (CAMJ-E018 for a malformed
     * document).
     */
    std::vector<Diagnostic> analyzeDocument(const json::Value &doc) const;

  private:
    std::vector<AnalysisRule> rules_;
};

/**
 * The unknown/deprecated-key lint alone (CAMJ-W005/W006): walks the
 * raw JSON tree against the serializer's known-key tables, with
 * did-you-mean hints for near-misses and a rename table for the
 * paper-era key spellings the parser silently ignores.
 */
std::vector<Diagnostic> lintDocumentKeys(const json::Value &doc);

/** Static input/output signal domain of a declarative component
 *  (Custom kinds use their declared domains; no instantiation). */
SignalDomain componentInputDomain(const spec::ComponentSpec &c);
SignalDomain componentOutputDomain(const spec::ComponentSpec &c);

} // namespace camj::analysis

#endif // CAMJ_ANALYSIS_ANALYZER_H

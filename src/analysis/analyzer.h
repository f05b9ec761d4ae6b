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
 * table. The rule catalogue (docs/lint_rules.md) is a static table;
 * the rules of one analyze() call share one SpecView, each piece of
 * it derived once, and build a field path only for a finding. So
 * analyzing a paper study costs 1.6-8.4 us against 4-29 us for
 * materializing and evaluating it, and analyzeDocument 7-27 us with
 * the key lint and fromJsonValue (best of 60 on one core of a 4-core
 * x86 container).
 */

#ifndef CAMJ_ANALYSIS_ANALYZER_H
#define CAMJ_ANALYSIS_ANALYZER_H

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analog/domain.h"
#include "spec/grid.h"
#include "spec/json.h"
#include "spec/spec.h"

namespace camj::analysis
{

/** What the rules derive from one spec (name lookups, stage probes,
 *  topological order, complete mapping, analog walk), each built on
 *  first use and shared by every rule run on it (analyzer.cc). */
class SpecView;

/** One rule of the catalogue. */
struct AnalysisRule
{
    /** Short slug ("dangling-references"). */
    const char *name;
    /** Primary code the rule emits ("CAMJ-E003"); a rule may emit
     *  related codes too (the analog-chain rule emits E010/E011/W003). */
    const char *code;
    /** Append findings for the view's spec. Must not throw. */
    void (*check)(SpecView &view, std::vector<Diagnostic> &out);
};

/** The static analyzer: the rule catalogue run over a DesignSpec. */
class SpecAnalyzer
{
  public:
    /** The built-in rule catalogue, in run order. */
    static std::span<const AnalysisRule> rules();

    /** Append @p rule's findings for @p spec, on a view of its own. */
    static void runRule(const AnalysisRule &rule,
                        const spec::DesignSpec &spec,
                        std::vector<Diagnostic> &out);

    /** Run every rule over one shared view of @p spec; diagnostics in
     *  catalogue order. */
    std::vector<Diagnostic> analyze(const spec::DesignSpec &spec) const;

    /**
     * Document-level analysis: unknown/deprecated-key lint over the
     * raw JSON tree, then (when the document parses) the full spec
     * rule set. A parse failure becomes a single error diagnostic
     * carrying the thrown rule code (CAMJ-E018 for a malformed
     * document).
     */
    std::vector<Diagnostic> analyzeDocument(const json::Value &doc) const;

    /**
     * analyzeDocument, keeping the spec it lowers: sets @p out to the
     * diagnostics analyzeDocument(@p doc) returns and returns the
     * lowered DesignSpec, or nullopt when @p doc does not lower.
     */
    std::optional<spec::DesignSpec>
    analyzeDocument(const json::Value &doc,
                    std::vector<Diagnostic> &out) const;
};

/**
 * The unknown/deprecated-key lint alone (CAMJ-W005/W006): walks the
 * raw JSON tree through the spec's field tables (spec.h, JSON shape),
 * the ones toJsonValue and fromJsonValue walk, so an object knows
 * exactly the keys the reader reads. Did-you-mean hints pick the
 * first closest key in table order; a rename table names the
 * paper-era spellings the parser silently ignores. The sweepGrid,
 * axis and shard blocks, read outside the spec, keep key lists here.
 */
std::vector<Diagnostic> lintDocumentKeys(const json::Value &doc);

/** Static input/output signal domain of a declarative component
 *  (Custom kinds use their declared domains; no instantiation). */
SignalDomain componentInputDomain(const spec::ComponentSpec &c);
SignalDomain componentOutputDomain(const spec::ComponentSpec &c);

} // namespace camj::analysis

#endif // CAMJ_ANALYSIS_ANALYZER_H

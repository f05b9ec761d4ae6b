/**
 * @file
 * GridAnalyzer: static infeasibility analysis over a sweepGrid — the
 * SpecAnalyzer's error rules lifted from single specs to whole axis
 * values. An axis value is DOOMED when the rule fires for every
 * combination of the other axes the rule depends on; every design
 * point carrying a doomed coordinate is then provably infeasible
 * before any worker materializes it.
 *
 * The invariant everything downstream relies on (and tests/bench
 * assert): pruned is a SUBSET of actually-infeasible. The analyzer
 * only prunes what it can prove — each grid rule reads nothing but
 * its declared top-level spec members, so fixing the dep axes fixes
 * the verdict — and whenever a proof would be too expensive (combo
 * blow-up) it simply proves nothing.
 *
 * PrefilterSpecSource packages the analysis as a drop-in SpecSource
 * over only the surviving points.
 */

#ifndef CAMJ_ANALYSIS_GRID_ANALYZER_H
#define CAMJ_ANALYSIS_GRID_ANALYZER_H

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "spec/grid.h"
#include "spec/source.h"

namespace camj::analysis
{

/** The result of analyzing one sweep document. */
class GridAnalysis
{
  public:
    /** Points the grid expands to. */
    size_t totalPoints() const { return total_; }

    /** Points proven infeasible. */
    size_t prunedPoints() const;

    /** True when point @p index (global grid index, row-major) is
     *  provably infeasible. */
    bool doomed(size_t index) const;

    /**
     * Why point @p index is doomed: the diagnostics of every doomed
     * coordinate it carries (cartesian) or of the point itself
     * (point-list). Empty for surviving points.
     */
    std::vector<Diagnostic> justification(size_t index) const;

    /**
     * Human-readable per-axis summary ("axis 'bufnode': value 254
     * doomed by CAMJ-E013 ..."), one line per doomed value/point.
     */
    std::string summary() const;

  private:
    friend class GridAnalyzer;

    size_t total_ = 0;
    bool pointListMode_ = false;
    std::vector<std::string> axisNames_;
    std::vector<size_t> axisSizes_;
    /** Cartesian mode: per axis, doomed value index -> why. */
    std::vector<std::map<size_t, std::vector<Diagnostic>>> doomedValues_;
    /** Point-list mode: doomed point index -> why. */
    std::map<size_t, std::vector<Diagnostic>> doomedPoints_;

    std::vector<size_t> coords(size_t index) const;
};

/** The grid analyzer: the liftable rules + interval evaluation. */
class GridAnalyzer
{
  public:
    /**
     * Prove what can be proven about @p source's grid. Every probe is
     * built by the source itself, as the sweep builds its points: a
     * cartesian probe sets the rule's dep axes and leaves the others
     * at their base values; a point-list probe is the point. Never
     * throws on evaluation failures: a point whose probe throws
     * ConfigError is infeasible by definition (the sweep's expansion
     * would throw the same error).
     */
    GridAnalysis analyze(const spec::GridSpecSource &source) const;

    /** Combinations of other-axis values a proof may enumerate
     *  before the analyzer gives up on that (rule, axis) pair. */
    static constexpr size_t kMaxCombos = 256;

  private:
    /** @p rule's Error diagnostics on the spec @p source builds at
     *  @p coords (a build throw is one error finding). */
    static std::vector<Diagnostic>
    evalRule(const AnalysisRule &rule, const spec::GridSpecSource &source,
             const std::vector<const json::Value *> &coords);
};

/**
 * A SpecSource over only the points a GridAnalysis could not prove
 * infeasible. Local indices are dense (0..N-1 over survivors);
 * globalIndex() recovers a point's identity in the unfiltered grid.
 * Thread-safe like the grid source it wraps.
 */
class PrefilterSpecSource : public spec::SpecSource
{
  public:
    /** @throws ConfigError when the document's grid fails
     *  validation (see GridSpecSource). */
    explicit PrefilterSpecSource(const spec::SweepDocument &doc);

    size_t totalPoints() const override { return survivors_.size(); }
    spec::DesignSpec at(size_t index) const override;

    /** Unfiltered grid index of surviving point @p local. */
    size_t globalIndex(size_t local) const;

    /** Global indices of the pruned points, ascending. */
    const std::vector<size_t> &prunedIndices() const { return pruned_; }

    /** The analysis backing the filter (justifications live here). */
    const GridAnalysis &analysis() const { return analysis_; }

  private:
    spec::GridSpecSource inner_;
    GridAnalysis analysis_;
    std::vector<size_t> survivors_;
    std::vector<size_t> pruned_;
};

/**
 * What lint finds in one document, stage by stage: the JSON parse
 * (text form only), SpecAnalyzer::analyzeDocument, then the
 * sweepGrid's validation and infeasibility analysis. A stage that
 * fails stops the chain; each failure is one diagnostic carrying its
 * thrown code (a malformed document or grid is CAMJ-E018).
 * `camj_sweep lint` prints the result and camj_serve admits on it.
 */
struct DocumentLint
{
    /** Every finding, in stage order. */
    std::vector<Diagnostic> diagnostics;
    /** The failed stage ("document does not parse", "static analysis
     *  found errors", "invalid sweep document"); empty when the
     *  document can run. */
    std::string rejection;
    /** The sweep document, set when rejection is empty. */
    std::optional<spec::SweepDocument> sweep;
    /** The grid source lint built over it (set with sweep), so a
     *  caller that runs the document shards this one instead of
     *  building and probing the grid again. Shared: a source cannot
     *  be moved. */
    std::shared_ptr<const spec::GridSpecSource> source;
    /** Its grid's infeasibility analysis, valid when sweep is set. */
    GridAnalysis grid;
};

/** Lint one document's text: parse it, then lintDocument(doc). */
DocumentLint lintDocument(const std::string &text);

/** Lint one parsed document; its base spec is lowered once. */
DocumentLint lintDocument(const json::Value &doc);

} // namespace camj::analysis

#endif // CAMJ_ANALYSIS_GRID_ANALYZER_H

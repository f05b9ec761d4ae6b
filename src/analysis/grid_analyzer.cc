#include "analysis/grid_analyzer.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace camj::analysis
{

using spec::DesignSpec;
using spec::GridSpecSource;
using spec::SweepDocument;

// --------------------------------------------------------- GridAnalysis

std::vector<size_t>
GridAnalysis::coords(size_t index) const
{
    // Row-major: first axis outermost, last axis fastest.
    std::vector<size_t> out(axisSizes_.size(), 0);
    for (size_t i = axisSizes_.size(); i-- > 0;) {
        out[i] = index % axisSizes_[i];
        index /= axisSizes_[i];
    }
    return out;
}

bool
GridAnalysis::doomed(size_t index) const
{
    if (index >= total_)
        return false;
    if (pointListMode_)
        return doomedPoints_.count(index) > 0;
    if (axisSizes_.empty())
        return false;
    std::vector<size_t> c = coords(index);
    for (size_t i = 0; i < c.size(); ++i) {
        if (doomedValues_[i].count(c[i]))
            return true;
    }
    return false;
}

std::vector<Diagnostic>
GridAnalysis::justification(size_t index) const
{
    std::vector<Diagnostic> out;
    if (index >= total_)
        return out;
    if (pointListMode_) {
        auto it = doomedPoints_.find(index);
        if (it != doomedPoints_.end())
            out = it->second;
        return out;
    }
    if (axisSizes_.empty())
        return out;
    std::vector<size_t> c = coords(index);
    for (size_t i = 0; i < c.size(); ++i) {
        auto it = doomedValues_[i].find(c[i]);
        if (it != doomedValues_[i].end())
            out.insert(out.end(), it->second.begin(),
                       it->second.end());
    }
    return out;
}

size_t
GridAnalysis::prunedPoints() const
{
    size_t n = 0;
    for (size_t i = 0; i < total_; ++i)
        n += doomed(i) ? 1 : 0;
    return n;
}

std::string
GridAnalysis::summary() const
{
    std::string out;
    if (pointListMode_) {
        for (const auto &[index, diags] : doomedPoints_) {
            for (const Diagnostic &d : diags) {
                out += "point " + std::to_string(index) + ": " +
                       d.format() + "\n";
            }
        }
        return out;
    }
    for (size_t i = 0; i < doomedValues_.size(); ++i) {
        for (const auto &[value, diags] : doomedValues_[i]) {
            for (const Diagnostic &d : diags) {
                out += "axis '" + axisNames_[i] + "' value " +
                       std::to_string(value) + ": " + d.format() +
                       "\n";
            }
        }
    }
    return out;
}

// --------------------------------------------------------- GridAnalyzer

namespace
{

using spec::specMemberBit;

/**
 * A SpecAnalyzer rule the grid analyzer lifts to axis intervals. The
 * soundness contract: the rule reads ONLY the top-level members in
 * reads (plus the design name, which the analyzer neutralizes — grid
 * points always get a non-empty coordinate suffix), so its verdict is
 * constant across the values of every axis outside reads.
 */
struct GridRule
{
    std::string_view rule;
    spec::SpecMemberMask reads;
};

// A key the member table lacks does not compile.
constexpr GridRule kLiftable[] = {
    {"top-level-params",
     specMemberBit("name") | specMemberBit("fps") |
         specMemberBit("digitalClock")},
    {"stage-arity", specMemberBit("stages")},
    {"stage-geometry", specMemberBit("stages")},
    {"memory-ranges", specMemberBit("memories")},
    {"component-params", specMemberBit("analogArrays")},
    {"adc-throughput",
     specMemberBit("fps") | specMemberBit("analogArrays") |
         specMemberBit("stages") | specMemberBit("mapping")},
    {"unit-params", specMemberBit("units")},
};

/** The SpecAnalyzer rule @p lifted lifts. */
const AnalysisRule &
analysisRule(const GridRule &lifted)
{
    for (const AnalysisRule &r : SpecAnalyzer::rules()) {
        if (lifted.rule == r.name)
            return r;
    }
    panic("GridAnalyzer: no SpecAnalyzer rule named '%.*s'",
          static_cast<int>(lifted.rule.size()), lifted.rule.data());
}

} // namespace

std::vector<Diagnostic>
GridAnalyzer::evalRule(const AnalysisRule &rule, const GridSpecSource &source,
                       const std::vector<const json::Value *> &coords)
{
    // An evaluation throw IS an error finding: expanding that point in
    // a sweep would throw the same ConfigError, so pruning on it stays
    // sound.
    std::vector<Diagnostic> errors;
    try {
        DesignSpec s = source.probe(coords);
        // Grid points always get a non-empty "/axis=value" name
        // suffix, so an empty base name never dooms a point.
        if (s.name.empty())
            s.name = "grid-probe";
        std::vector<Diagnostic> all;
        SpecAnalyzer::runRule(rule, s, all);
        for (Diagnostic &d : all) {
            if (d.severity == Severity::Error)
                errors.push_back(std::move(d));
        }
    } catch (const ConfigError &e) {
        errors.push_back(makeError(e.code(), "", e.what()));
    }
    return errors;
}

GridAnalysis
GridAnalyzer::analyze(const GridSpecSource &source) const
{
    const spec::SweepGrid &grid = source.grid_;
    GridAnalysis out;
    out.total_ = grid.points();

    if (!grid.pointList.empty()) {
        // Explicit point list: evaluate every point directly.
        out.pointListMode_ = true;
        std::vector<const json::Value *> coords(grid.axes.size());
        for (size_t p = 0; p < grid.pointList.size(); ++p) {
            for (size_t a = 0; a < grid.axes.size(); ++a)
                coords[a] = &grid.pointList[p][a];
            std::vector<Diagnostic> why;
            for (const GridRule &r : kLiftable) {
                std::vector<Diagnostic> errs =
                    evalRule(analysisRule(r), source, coords);
                why.insert(why.end(), errs.begin(), errs.end());
            }
            if (!why.empty())
                out.doomedPoints_.emplace(p, std::move(why));
        }
        return out;
    }

    if (grid.axes.empty())
        return out;
    for (const spec::GridAxis &a : grid.axes) {
        out.axisNames_.push_back(a.name);
        out.axisSizes_.push_back(a.values.size());
    }
    out.doomedValues_.resize(grid.axes.size());

    for (const GridRule &lifted : kLiftable) {
        const AnalysisRule &rule = analysisRule(lifted);
        // Axes the rule's verdict can depend on; the others stay at
        // their base values in every probe.
        std::vector<const json::Value *> coords(grid.axes.size(), nullptr);
        std::vector<size_t> depAxes;
        for (size_t a = 0; a < grid.axes.size(); ++a) {
            const std::string &root = source.axisPaths_[a][0].member;
            if ((lifted.reads & specMemberBit(root)) != 0)
                depAxes.push_back(a);
        }
        for (size_t ai = 0; ai < depAxes.size(); ++ai) {
            const size_t axis = depAxes[ai];
            // The other dep axes must be enumerated exhaustively: a
            // value is only doomed when the rule errors for EVERY
            // combination.
            std::vector<size_t> others;
            size_t combos = 1;
            bool tractable = true;
            for (size_t oi = 0; oi < depAxes.size(); ++oi) {
                if (oi == ai)
                    continue;
                others.push_back(depAxes[oi]);
                const size_t n = grid.axes[depAxes[oi]].values.size();
                if (combos > kMaxCombos / std::max<size_t>(n, 1)) {
                    tractable = false;
                    break;
                }
                combos *= n;
            }
            if (!tractable)
                continue; // prove nothing rather than guess

            const spec::GridAxis &ax = grid.axes[axis];
            for (size_t v = 0; v < ax.values.size(); ++v) {
                if (out.doomedValues_[axis].count(v))
                    continue; // already doomed by an earlier rule
                std::vector<Diagnostic> why;
                bool allFire = true;
                std::vector<size_t> combo(others.size(), 0);
                coords[axis] = &ax.values[v];
                for (size_t c = 0; c < combos && allFire; ++c) {
                    for (size_t oi = 0; oi < others.size(); ++oi)
                        coords[others[oi]] =
                            &grid.axes[others[oi]].values[combo[oi]];
                    std::vector<Diagnostic> errs =
                        evalRule(rule, source, coords);
                    if (errs.empty())
                        allFire = false;
                    else if (why.empty())
                        why = std::move(errs);
                    // Mixed-radix increment over the other axes.
                    for (size_t oi = others.size(); oi-- > 0;) {
                        if (++combo[oi] <
                            grid.axes[others[oi]].values.size())
                            break;
                        combo[oi] = 0;
                    }
                }
                if (allFire && !why.empty())
                    out.doomedValues_[axis].emplace(v,
                                                    std::move(why));
            }
        }
    }
    return out;
}

// -------------------------------------------------- PrefilterSpecSource

PrefilterSpecSource::PrefilterSpecSource(const SweepDocument &doc)
    : inner_(doc.base, doc.grid), analysis_(GridAnalyzer().analyze(inner_))
{
    const size_t total = inner_.totalPoints();
    survivors_.reserve(total);
    for (size_t i = 0; i < total; ++i) {
        if (analysis_.doomed(i))
            pruned_.push_back(i);
        else
            survivors_.push_back(i);
    }
}

DesignSpec
PrefilterSpecSource::at(size_t index) const
{
    return inner_.at(globalIndex(index));
}

size_t
PrefilterSpecSource::globalIndex(size_t local) const
{
    if (local >= survivors_.size())
        fatal("PrefilterSpecSource: local index %zu out of range "
              "(%zu surviving points)",
              local, survivors_.size());
    return survivors_[local];
}

// --------------------------------------------------------- lintDocument

DocumentLint
lintDocument(const std::string &text)
{
    json::Value doc;
    try {
        doc = json::Value::parse(text);
    } catch (const ConfigError &e) {
        DocumentLint out;
        out.diagnostics.push_back(makeError(e.code(), "", e.what()));
        out.rejection = "document does not parse";
        return out;
    }
    return lintDocument(doc);
}

DocumentLint
lintDocument(const json::Value &doc)
{
    DocumentLint out;
    std::optional<spec::DesignSpec> base =
        SpecAnalyzer().analyzeDocument(doc, out.diagnostics);
    if (!base || hasErrors(out.diagnostics)) {
        out.rejection = "static analysis found errors";
        return out;
    }
    try {
        spec::SweepDocument sweep;
        if (const json::Value *block = doc.find("sweepGrid"))
            sweep.grid = spec::gridFromJson(*block);
        sweep.base = std::move(*base);
        // Building the grid source also validates every axis value.
        auto source = std::make_shared<const spec::GridSpecSource>(
            sweep.base, sweep.grid);
        out.grid = GridAnalyzer().analyze(*source);
        out.source = std::move(source);
        out.sweep = std::move(sweep);
    } catch (const ConfigError &e) {
        out.diagnostics.push_back(makeError(e.code(), "", e.what()));
        out.rejection = "invalid sweep document";
    }
    return out;
}

} // namespace camj::analysis

/**
 * @file
 * SweepGrid: parameterized spec templates — grid expansion declared
 * inside the spec file. A grid is a list of named axes, each naming a
 * spec field (by path) and the values it sweeps over; the cartesian
 * product of the axes defines the design points. The grid lives in a
 * "sweepGrid" block of an ordinary DesignSpec JSON document, so one
 * file describes an entire design-space study:
 *
 *   {
 *     "name": "detector", "fps": 30, ...,
 *     "sweepGrid": {
 *       "axes": [
 *         {"name": "rate", "path": "fps", "values": [1, 30, 120]},
 *         {"name": "node", "path": "memories[*].nodeNm",
 *          "values": [65, 130]}
 *       ]
 *     }
 *   }
 *
 * Paths are dot-separated member names; a segment may carry a
 * selector — `memories[ActBuf]` (element whose "name" is ActBuf),
 * `stages[2]` (index), `memories[*]` (every element). Expansion is
 * LAZY: GridSpecSource builds point i when a sweep asks for it, off a
 * shared parsed base document, so a 10k-point grid never exists as a
 * vector. Each point's design name is suffixed with its coordinates
 * ("detector/rate=30,node=65"), keeping every point's identity stable
 * and diffable.
 */

#ifndef CAMJ_SPEC_GRID_H
#define CAMJ_SPEC_GRID_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spec/json.h"
#include "spec/source.h"
#include "spec/spec.h"

namespace camj::analysis
{
class GridAnalyzer;
} // namespace camj::analysis

namespace camj::spec
{

// ----------------------------------------------------------- field paths

/**
 * One parsed segment of a spec field path ("memories[ActBuf].nodeNm"):
 * a member name plus an optional array selector — an index, an element
 * name, or "*". Shared by grid expansion and spec-diff application.
 */
struct SpecPathSegment
{
    std::string member;
    /** Array selector: an index, an element name, or "*". */
    std::string selector;
    bool hasSelector = false;
};

/** Parse a dot-separated spec field path into segments.
 *  @throws ConfigError on malformed paths (empty members/selectors). */
std::vector<SpecPathSegment> parseSpecPath(const std::string &path);

/** True when the selector is all digits (an array index). */
bool isIndexSelector(const std::string &selector);

/** One grid axis: a spec field and the values it sweeps over. */
struct GridAxis
{
    /** Axis label, used in expanded design names ("rate=30"). */
    std::string name;
    /** Spec-field path ("fps", "memories[ActBuf].nodeNm", ...). */
    std::string path;
    /** Values the axis takes; any JSON value the field accepts. */
    std::vector<json::Value> values;
};

/**
 * A serializable sweep declaration: named axes, expanded either as
 * the cartesian product of per-axis value lists (the classic grid) or
 * as an EXPLICIT point list — one axis-value tuple per design point,
 * for non-cartesian studies (coupled axes, pareto fronts, re-runs of
 * hand-picked points). With a point list, the axes contribute their
 * names and field paths and may omit "values":
 *
 *   "sweepGrid": {
 *     "axes": [{"name": "rate", "path": "fps"},
 *              {"name": "node", "path": "memories[*].nodeNm"}],
 *     "points": [[30, 65], [60, 65], [120, 45]]
 *   }
 */
struct SweepGrid
{
    std::vector<GridAxis> axes;

    /** Explicit axis-value tuples (JSON "points"); one inner vector
     *  per design point, one value per axis in axis order. When
     *  non-empty, the per-axis value lists are ignored for
     *  expansion. */
    std::vector<std::vector<json::Value>> pointList;

    /** Total design points: the explicit point count when a point
     *  list is declared, else the product of axis sizes (1 when no
     *  axes — the base spec itself). */
    size_t points() const;

    /** Structural validation: non-empty unique axis names,
     *  well-formed paths, non-empty value lists (cartesian mode) or
     *  axis-arity-matching tuples (point-list mode).
     *  @throws ConfigError. */
    void validate() const;
};

/** Grid -> its "sweepGrid" JSON block. */
json::Value gridToJson(const SweepGrid &grid);

/** "sweepGrid" JSON block -> grid. @throws ConfigError. */
SweepGrid gridFromJson(const json::Value &block);

/**
 * The lazy cartesian expander: one DesignSpec per grid point, indexed
 * in row-major order (first axis outermost, last axis fastest).
 *
 * A grid without axes has one point, the base spec itself: the source
 * keeps the DesignSpec it was given and at(0) returns it, with no
 * document built, converted or probed. That is every single-design
 * document (one without "sweepGrid"), evaluated as parsed.
 *
 * A grid with axes expands from the canonical tree toJsonValue
 * writes, because an axis path may name a member only that tree
 * carries (a defaulted nodeNm, say). Construction converts that base
 * document once, lowers it once with fromJsonValue, parses every axis
 * path once and records the member-table entries (specMembers()) the
 * paths are rooted at. Each point is then built in a pooled workspace
 * copy of the document: axes apply in declaration order, each path
 * resolved against the document as the earlier axes left it (so an
 * axis may overlap or rename what a later axis selects), and every
 * value a write displaces goes to the workspace's undo log. The point
 * is a copy of the lowered base with only the recorded members
 * re-lowered from the workspace, in table order; then the log is
 * replayed in reverse. No text re-parse, no per-point document clone
 * or whole-document lowering, no pre-materialized vector.
 *
 * That equals fromJsonValue of the point's written tree: an axis
 * writes only inside the member its path is rooted at, and every
 * DesignSpec field is lowered from exactly one member, so a member no
 * axis writes lowers to the base's value. A failing point throws the
 * text fromJsonValue would, because the written members lower in the
 * table's order and the others cannot fail.
 *
 * A grid with axes also validates and materializes its lowered base
 * once, at construction (MaterializedSpec). pointAt() then hands a
 * sweep worker each point built in place: the worker's SpecPoint
 * holds a copy of the lowered base, made once, into which each point
 * re-lowers only its axes' members and rewrites its name, and a copy
 * of the materialized base, in which each point re-runs only the
 * checks and parts that those members and its name feed
 * (MaterializedSpec::rebuild), so the point's spec is at(index) and
 * its Design, or the error it fails with, is the one
 * spec.materialize() gives. A point another source filled starts
 * over from the base (SpecPoint::sourceId). When the base does not
 * validate or materialize, points are handed over unmaterialized and
 * take the whole path; so are the points of a grid without axes,
 * which is materialized once, by its evaluator.
 *
 * at() and pointAt() are thread-safe, so sweep workers expand points
 * in parallel: workspaces are handed out under a mutex, and the
 * lowered and materialized bases are read-only after construction.
 */
class GridSpecSource : public SpecSource
{
  public:
    /**
     * Validates the grid against the base document up front: every
     * axis path must resolve in the base document, and every distinct
     * axis value must build a spec (other axes at their front values
     * on a cartesian grid, at their base values on a point list), so a
     * bad grid fails here with its axis named — never thousands of
     * points into a sweep on a worker thread.
     *
     * @throws ConfigError.
     */
    GridSpecSource(const DesignSpec &base, SweepGrid grid);

    GridSpecSource(const GridSpecSource &other);

    /** Out-of-line: the workspace pool holds an incomplete type
     *  here. */
    ~GridSpecSource() override;

    /** The spec of point @p index: a copy of the base built by the
     *  routine pointAt() builds in place with. */
    DesignSpec at(size_t index) const override;
    /** Point @p index, built in place in @p point, and materialized
     *  from the base when there is one. */
    void pointAt(size_t index, SpecPoint &point) const override;
    size_t totalPoints() const override { return total_; }

  private:
    /** GridAnalyzer's probes are built by build() as well, so a lint
     *  probe is exactly the point the sweep builds. */
    friend class analysis::GridAnalyzer;

    /** One reusable expansion buffer: a copy of the base document
     *  plus the undo log of the build in progress. */
    struct Workspace;

    /** Every point starts as a copy of this: the base spec as given
     *  without axes, fromJsonValue(baseDoc_) with axes. */
    DesignSpec baseSpec_;
    /** The canonical base document axes expand from (null without
     *  axes). */
    json::Value baseDoc_;
    std::string baseName_;
    SweepGrid grid_;
    /** Axis paths parsed once at construction (same order as
     *  grid_.axes). */
    std::vector<std::vector<SpecPathSegment>> axisPaths_;
    /** The specMembers() entries the axis paths are rooted at, in
     *  table order: the only members a point re-lowers. */
    std::vector<const SpecMember *> axisMembers_;
    /** baseSpec_ materialized, when the grid has axes and the base
     *  validates and materializes; null otherwise. Shared by copies. */
    std::shared_ptr<const MaterializedSpec> baseBuilt_;
    /** The members a point may differ from baseSpec_ in: the axes'
     *  root members and the name. */
    SpecMemberMask pointMembers_ = 0;
    size_t total_ = 0;
    /** Per axis of a cartesian grid, the points between two of its
     *  values in row-major order. */
    std::vector<size_t> strides_;
    /** This instance's SpecPoint::sourceId, unique in the process
     *  (a copy gets its own). */
    uint64_t id_ = 0;
    mutable std::mutex poolMutex_;
    mutable std::vector<std::unique_ptr<Workspace>> pool_;

    /** Point @p index's value of axis @p a. */
    const json::Value *coord(size_t index, size_t a) const;

    /** Point @p index's name ("base/rate=30,node=65") into @p name,
     *  replacing what it held. */
    void pointName(size_t index, std::string &name) const;

    /**
     * Set axis a to coord(a) for every axis whose coord(a) is not
     * null, in declaration order, in @p spec, which holds the lowered
     * base in every member no axis is rooted at (a copy of baseSpec_,
     * or a spec this routine wrote before). The one routine behind
     * every point, construction probe and GridAnalyzer probe: the
     * axes are written into a workspace document, and axisMembers_
     * are re-lowered from it into @p spec; the name is left as the
     * lowering leaves it (the base name unless an axis writes "name",
     * which only probes read). A throw drops the workspace.
     *
     * @throws ConfigError when a path does not resolve or a written
     *         member does not convert.
     */
    template <typename Coord>
    void build(Coord coord, DesignSpec &spec) const;

    /** A copy of the base with axis a at *coords[a] where that is not
     *  null (build()): a construction or GridAnalyzer probe. */
    DesignSpec probe(const std::vector<const json::Value *> &coords) const;
    std::unique_ptr<Workspace> acquireWorkspace() const;
    void releaseWorkspace(std::unique_ptr<Workspace> ws) const;
};

/** Eager expansion, for small grids and tests. @throws ConfigError. */
std::vector<DesignSpec> expandGrid(const DesignSpec &base,
                                   const SweepGrid &grid);

// ------------------------------------------------------ sweep documents

/** A spec document plus its (possibly empty) sweepGrid block. */
struct SweepDocument
{
    DesignSpec base;
    SweepGrid grid;

    /** The lazy source over this document's grid; without axes, its
     *  one point is a copy of base. */
    GridSpecSource source() const { return {base, grid}; }
};

/** Parse a spec document, capturing the "sweepGrid" block when
 *  present. @throws ConfigError. */
SweepDocument sweepDocumentFromJson(const std::string &text);

/** The same, from an already parsed document. @throws ConfigError. */
SweepDocument sweepDocumentFromJson(const json::Value &doc);

/** Render base + sweepGrid back into one document. */
std::string toJson(const SweepDocument &doc);

/** Load a sweep document from a JSON file. @throws ConfigError. */
SweepDocument loadSweepFile(const std::string &path);

} // namespace camj::spec

#endif // CAMJ_SPEC_GRID_H

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
 * shared lowered base, so a 10k-point grid never exists as a
 * vector. Each point's design name is suffixed with its coordinates
 * ("detector/rate=30,node=65"), keeping every point's identity stable
 * and diffable.
 */

#ifndef CAMJ_SPEC_GRID_H
#define CAMJ_SPEC_GRID_H

#include <cstddef>
#include <cstdint>
#include <memory>
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
     *  axes — the base spec itself). Exact for a grid validate()
     *  accepts. */
    size_t points() const;

    /** The most points a cartesian grid may have: 2^53, the largest
     *  point index a JSONL "index" number carries exactly. */
    static constexpr size_t kMaxPoints = size_t{1} << 53;

    /** Structural validation: non-empty unique axis names,
     *  well-formed paths, non-empty value lists whose sizes multiply
     *  to at most kMaxPoints (cartesian mode) or axis-arity-matching
     *  tuples (point-list mode).
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
 * A point with axes is defined on the canonical tree toJsonValue
 * writes for the base, since a path may name a member only that tree
 * carries (a defaulted nodeNm, say): each axis writes its value at
 * every node its path selects in the tree the earlier axes left, and
 * the point is the written tree's lowering. Construction lowers the
 * base tree once, resolves each path in it (refusing one the tree
 * does not carry) and compiles it into a typed writer: per target, the
 * chain of Field entries and list elements reaching it in the lowered
 * base. A point is a copy of the lowered base with each value stored
 * by assignField, lowering's own reader, and a name joined from
 * "axis=value" fragments spelled once per value (a point list's is
 * spelled from its own tuple).
 *
 * Where the tree's shape or names could move under a write (an axis
 * on a version or a unit's kind, a list element written whole, any
 * path in a member an earlier axis renamed or wrote whole), and for a
 * point a write refuses, the axes' members of the base tree are
 * written and lowered instead (the other members cannot differ or
 * fail), so a refusal has the whole lowering's text.
 *
 * The base is also validated and materialized once (MaterializedSpec).
 * pointAt() builds each point in the worker's SpecPoint in place: its
 * spec is a copy of the lowered base, made once, and its Design a copy
 * of the materialized base in which a point re-runs only the checks
 * and parts its written fields feed (MaterializedSpec::rebuild), so it
 * is at(index) and spec.materialize()'s Design or error. A point
 * another source filled starts over (SpecPoint::sourceId). Without a
 * materialized base (no axes, or a base that fails) points take the
 * evaluator's whole path.
 *
 * Everything is read-only after construction, so at() and pointAt()
 * are thread-safe and sweep workers expand points in parallel.
 */
class GridSpecSource : public SpecSource
{
  public:
    /**
     * Validates the grid against the base document up front: every
     * axis path must resolve in the base document, and every axis
     * value must build a spec (other axes at their front values
     * on a cartesian grid, at their base values on a point list), so a
     * bad grid fails here with its axis named — never thousands of
     * points into a sweep on a worker thread.
     *
     * @throws ConfigError.
     */
    GridSpecSource(const DesignSpec &base, SweepGrid grid);

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

    /** One step of a compiled path: a field of the object the step
     *  before reached, and the list or shape element it selects
     *  (SIZE_MAX: the field whole). */
    struct Hop
    {
        const Field *field;
        size_t element;

        /** The object this step reaches from @p owner; null when the
         *  list there has no such element. */
        void *into(void *owner) const;
    };

    struct Axis
    {
        std::vector<SpecPathSegment> path;
        /** The typed writer: path.size() hops per target. */
        std::vector<Hop> hops;
        /** Written on the tree (see the class comment). */
        bool viaTree = false;
        /** The member the path is rooted at, and the fields it writes. */
        SpecMemberMask root = 0;
        SpecMemberMask writes = 0;
        /** A cartesian axis's name fragment per value ("rate=30"). */
        std::vector<std::string> fragments;
    };

    /** The lowered base; without axes, the base as given. With axes it
     *  has no name: every point spells its own. */
    DesignSpec baseSpec_;
    std::string baseName_;
    SweepGrid grid_;
    std::vector<Axis> axes_;
    /** The base tree's members in roots_, where the tree route
     *  writes, when an axis is always written there (null else). */
    json::Value treeBase_;
    /** baseSpec_ materialized, when the grid has axes and the base
     *  validates and materializes; null otherwise. Shared by copies. */
    std::shared_ptr<const MaterializedSpec> baseBuilt_;
    /** What a point may differ from the last in, besides its name:
     *  the fields the writers write, or, on the tree, the members the
     *  axes are rooted at. */
    SpecMemberMask writes_ = 0;
    SpecMemberMask roots_ = 0;
    size_t total_ = 0;
    /** Per axis of a cartesian grid, the points between two of its
     *  values in row-major order. */
    std::vector<size_t> strides_;
    /** This source's SpecPoint::sourceId, unique in the process to it
     *  and its copies. */
    uint64_t id_ = 0;

    /** Point @p index's value of axis @p a. */
    const json::Value *coord(size_t index, size_t a) const;

    /** Point @p index's name ("base/rate=30,node=65") into @p name,
     *  replacing what it held. */
    void pointName(size_t index, std::string &name) const;

    /**
     * Write axis a's value coord(a), for every axis whose coord(a) is
     * not null, in declaration order, into @p spec, which holds the
     * lowered base in every member no axis is rooted at: by the typed
     * writers, or on the tree. The one routine behind every point,
     * construction probe and GridAnalyzer probe. The name is left as it
     * was unless an axis is rooted at it.
     *
     * @return Whether the typed writers wrote the point.
     * @throws ConfigError when the point's tree does not resolve or
     *         lower.
     */
    template <typename Coord>
    bool build(Coord coord, DesignSpec &spec) const;

    /** Write @p v at every target of @p axis in @p spec.
     *  @return False when a list there is shorter than in the base (a
     *          later axis wrote it whole).
     *  @throws ConfigError when the field's reader refuses @p v. */
    static bool write(const Axis &axis, const json::Value &v,
                      DesignSpec &spec);

    /** A copy of the base, named, with axis a at *coords[a] where that
     *  is not null (build()): a GridAnalyzer probe. */
    DesignSpec probe(const std::vector<const json::Value *> &coords) const;
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

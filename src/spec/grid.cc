#include "spec/grid.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/logging.h"

namespace camj::spec
{

using json::Value;

// ------------------------------------------------------------ paths

std::vector<SpecPathSegment>
parseSpecPath(const std::string &path)
{
    if (path.empty())
        fatal(Rule::E018, "sweepGrid: empty field path");
    std::vector<SpecPathSegment> segments;
    size_t pos = 0;
    while (pos <= path.size()) {
        size_t dot = path.find('.', pos);
        std::string token = path.substr(
            pos, dot == std::string::npos ? std::string::npos
                                          : dot - pos);
        SpecPathSegment seg;
        size_t open = token.find('[');
        if (open == std::string::npos) {
            seg.member = token;
        } else {
            if (token.back() != ']' || open + 2 > token.size() - 1)
                fatal(Rule::E018,
                      "sweepGrid: path '%s': malformed selector in "
                      "segment '%s' (expected member[selector])",
                      path.c_str(), token.c_str());
            seg.member = token.substr(0, open);
            seg.selector =
                token.substr(open + 1, token.size() - open - 2);
            seg.hasSelector = true;
            if (seg.selector.empty())
                fatal(Rule::E018,
                      "sweepGrid: path '%s': empty selector in "
                      "segment '%s'", path.c_str(), token.c_str());
        }
        if (seg.member.empty())
            fatal(Rule::E018, "sweepGrid: path '%s': empty member name",
                  path.c_str());
        segments.push_back(std::move(seg));
        if (dot == std::string::npos)
            break;
        pos = dot + 1;
    }
    return segments;
}

bool
isIndexSelector(const std::string &selector)
{
    for (char c : selector) {
        if (c < '0' || c > '9')
            return false;
    }
    return !selector.empty();
}

namespace
{

std::string
objectKeys(const Value &node)
{
    std::string keys;
    for (const auto &[k, v] : node.asObject())
        keys += (keys.empty() ? "" : ", ") + k;
    return keys.empty() ? "<empty>" : keys;
}

/** Select the elements a segment's selector names within @p arr. */
std::vector<Value *>
selectElements(Value &child, const SpecPathSegment &seg,
               const std::string &path)
{
    if (!child.isArray())
        fatal(Rule::E018,
              "sweepGrid: path '%s': member '%s' is not an array but "
              "carries selector '[%s]'", path.c_str(),
              seg.member.c_str(), seg.selector.c_str());
    auto &arr = child.mutableArray();
    std::vector<Value *> selected;
    if (seg.selector == "*") {
        for (Value &e : arr)
            selected.push_back(&e);
        if (selected.empty())
            fatal(Rule::E018,
                  "sweepGrid: path '%s': '%s[*]' matches no elements "
                  "(the array is empty)", path.c_str(),
                  seg.member.c_str());
    } else if (isIndexSelector(seg.selector)) {
        // Over-long digit strings would overflow stoull; anything
        // past 12 digits can't index a real array anyway.
        if (seg.selector.size() > 12)
            fatal(Rule::E018,
                  "sweepGrid: path '%s': index selector '[%s]' is "
                  "out of range", path.c_str(), seg.selector.c_str());
        size_t idx = static_cast<size_t>(std::stoull(seg.selector));
        if (idx >= arr.size())
            fatal(Rule::E018,
                  "sweepGrid: path '%s': index %zu out of range "
                  "(array '%s' has %zu elements)", path.c_str(), idx,
                  seg.member.c_str(), arr.size());
        selected.push_back(&arr[idx]);
    } else {
        std::vector<std::string> names;
        for (Value &e : arr) {
            const Value *n = e.find("name");
            if (n != nullptr && n->isString()) {
                if (n->asString() == seg.selector) {
                    selected.push_back(&e);
                    continue;
                }
                names.push_back(n->asString());
            }
        }
        if (selected.empty())
            fatal(Rule::E018,
                  "sweepGrid: path '%s': no element of '%s' is named "
                  "'%s' (elements: %s)", path.c_str(),
                  seg.member.c_str(), seg.selector.c_str(),
                  joinNames(names).c_str());
    }
    return selected;
}

/** Resolve the nodes a parsed path addresses within @p node, without
 *  writing anything — expansion resolves once and assigns per point.
 *  @throws ConfigError naming the path and the failing segment. */
void
collectTargets(Value &node, const std::vector<SpecPathSegment> &segments,
               size_t i, const std::string &path,
               std::vector<Value *> &out)
{
    const SpecPathSegment &seg = segments[i];
    if (!node.isObject())
        fatal(Rule::E018,
              "sweepGrid: path '%s': segment '%s' applied to a "
              "non-object value", path.c_str(), seg.member.c_str());
    Value *child = node.find(seg.member);
    if (child == nullptr)
        fatal(Rule::E018,
              "sweepGrid: path '%s': no member '%s' (object has: %s); "
              "to sweep an optional member, set it in the base spec "
              "first", path.c_str(), seg.member.c_str(),
              objectKeys(node).c_str());

    const bool last = i + 1 == segments.size();
    if (!seg.hasSelector) {
        if (last)
            out.push_back(child);
        else
            collectTargets(*child, segments, i + 1, path, out);
        return;
    }
    for (Value *element : selectElements(*child, seg, path)) {
        if (last)
            out.push_back(element);
        else
            collectTargets(*element, segments, i + 1, path, out);
    }
}

/** One parsed-path override: resolve, then assign @p value to every
 *  addressed node. */
void
applyParsed(Value &doc, const std::vector<SpecPathSegment> &segments,
            const Value &value, const std::string &path)
{
    std::vector<Value *> targets;
    collectTargets(doc, segments, 0, path, targets);
    for (Value *target : targets)
        *target = value;
}

/**
 * Could two parsed axis paths resolve to targets that are NOT
 * pairwise disjoint — one target containing the other (a path a
 * strict prefix of another), or two paths naming the very same node?
 * Conservative: false only when some level proves the paths diverge
 * (different members, or concrete same-kind selectors that differ).
 * An interference sends expansion down the clone-per-point path, so
 * a false positive costs speed, never correctness.
 */
bool
pathsMayInterfere(const std::vector<SpecPathSegment> &a,
                  const std::vector<SpecPathSegment> &b)
{
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
        if (a[i].member != b[i].member)
            return false;
        // Two concrete selectors of one kind (both indices or both
        // element names) that differ pick distinct elements. A "*",
        // a member-vs-element mismatch, or an index-vs-name pair may
        // alias, so they prove nothing.
        if (a[i].hasSelector && b[i].hasSelector &&
            a[i].selector != "*" && b[i].selector != "*" &&
            a[i].selector != b[i].selector &&
            isIndexSelector(a[i].selector) ==
                isIndexSelector(b[i].selector))
            return false;
    }
    return true;
}

/** Render an axis value for a point name ("30", "sram", "true"). */
std::string
renderAxisValue(const Value &v)
{
    switch (v.type()) {
      case Value::Type::String:
        return v.asString();
      case Value::Type::Number:
        return strprintf("%g", v.asNumber());
      case Value::Type::Bool:
        return v.asBool() ? "true" : "false";
      default:
        return v.dump(0);
    }
}

} // namespace

// -------------------------------------------------------------- grid

size_t
SweepGrid::points() const
{
    if (!pointList.empty())
        return pointList.size();
    size_t n = 1;
    for (const GridAxis &axis : axes)
        n *= axis.values.size();
    return n;
}

void
SweepGrid::validate() const
{
    std::vector<std::string> seen;
    for (const GridAxis &axis : axes) {
        if (axis.name.empty())
            fatal(Rule::E018, "sweepGrid: an axis has an empty name");
        for (char c : axis.name) {
            if (c == '=' || c == ',' || c == '/')
                fatal(Rule::E018,
                      "sweepGrid: axis name '%s' contains '%c' "
                      "(reserved for point-name encoding)",
                      axis.name.c_str(), c);
        }
        for (const std::string &s : seen) {
            if (s == axis.name)
                fatal(Rule::E018, "sweepGrid: duplicate axis name '%s'",
                      axis.name.c_str());
        }
        seen.push_back(axis.name);
        if (pointList.empty() && axis.values.empty())
            fatal(Rule::E018, "sweepGrid: axis '%s' has no values",
                  axis.name.c_str());
        parseSpecPath(axis.path); // throws on malformed paths
    }
    if (!pointList.empty()) {
        if (axes.empty())
            fatal(Rule::E018,
                  "sweepGrid: a \"points\" list needs axes declaring "
                  "the field paths the tuples bind to");
        for (size_t i = 0; i < pointList.size(); ++i) {
            if (pointList[i].size() != axes.size())
                fatal(Rule::E018,
                      "sweepGrid: point %zu has %zu value(s) but the "
                      "grid declares %zu axes", i,
                      pointList[i].size(), axes.size());
        }
    }
}

json::Value
gridToJson(const SweepGrid &grid)
{
    Value block = Value::makeObject();
    Value axes = Value::makeArray();
    for (const GridAxis &axis : grid.axes) {
        Value a = Value::makeObject();
        a.set("name", Value(axis.name));
        a.set("path", Value(axis.path));
        // Point-list grids may omit the per-axis value lists; keep
        // cartesian documents byte-stable by always emitting theirs.
        if (!axis.values.empty() || grid.pointList.empty()) {
            Value values = Value::makeArray();
            for (const Value &v : axis.values)
                values.push(v);
            a.set("values", std::move(values));
        }
        axes.push(std::move(a));
    }
    block.set("axes", std::move(axes));
    if (!grid.pointList.empty()) {
        Value points = Value::makeArray();
        for (const auto &tuple : grid.pointList) {
            Value t = Value::makeArray();
            for (const Value &v : tuple)
                t.push(v);
            points.push(std::move(t));
        }
        block.set("points", std::move(points));
    }
    return block;
}

SweepGrid
gridFromJson(const json::Value &block)
{
    SweepGrid grid;
    if (const Value *points = block.find("points")) {
        for (const Value &tuple : points->asArray()) {
            std::vector<Value> t;
            for (const Value &v : tuple.asArray())
                t.push_back(v);
            grid.pointList.push_back(std::move(t));
        }
    }
    for (const Value &a : block.at("axes").asArray()) {
        GridAxis axis;
        axis.name = a.at("name").asString();
        axis.path = a.at("path").asString();
        // "values" is optional when the grid declares explicit
        // points; validate() enforces it for cartesian grids.
        const Value *values =
            grid.pointList.empty() ? &a.at("values") : a.find("values");
        if (values != nullptr) {
            for (const Value &v : values->asArray())
                axis.values.push_back(v);
        }
        grid.axes.push_back(std::move(axis));
    }
    grid.validate();
    return grid;
}

void
applySpecOverride(json::Value &doc, const std::string &path,
                  const json::Value &value)
{
    applyParsed(doc, parseSpecPath(path), value, path);
}

// ---------------------------------------------------------- expansion

/** One reusable expansion buffer: a copy of the base document plus
 *  the per-axis override targets resolved into it once. Only valid
 *  while no write replaces a subtree containing a target — which is
 *  why interfering axes bypass the pool entirely. */
struct GridSpecSource::Workspace
{
    json::Value doc;
    /** Override targets per axis, resolved into doc (axis order). */
    std::vector<std::vector<json::Value *>> targets;
    /** The top-level "name" member (guaranteed present). */
    json::Value *name = nullptr;
};

GridSpecSource::GridSpecSource(const DesignSpec &base, SweepGrid grid)
    : baseDoc_(toJsonValue(base)), baseName_(base.name),
      grid_(std::move(grid))
{
    grid_.validate();
    total_ = grid_.points();
    // Every point overwrites the top-level "name"; make sure the
    // member exists up front so that write never GROWS the top-level
    // object (growth reallocates the member vector, which would
    // dangle any cached target that addresses a top-level member).
    if (baseDoc_.find("name") == nullptr)
        baseDoc_.set("name", Value(baseName_));
    axisPaths_.reserve(grid_.axes.size());
    for (const GridAxis &axis : grid_.axes)
        axisPaths_.push_back(parseSpecPath(axis.path));
    for (size_t a = 0; a < axisPaths_.size() && !axesMayInterfere_; ++a) {
        for (size_t b = a + 1; b < axisPaths_.size(); ++b) {
            if (pathsMayInterfere(axisPaths_[a], axisPaths_[b])) {
                axesMayInterfere_ = true;
                break;
            }
        }
    }
    if (!grid_.pointList.empty()) {
        // Explicit point list: probe each DISTINCT value per axis
        // against the base document, so a bad path or value fails
        // here with the axis and value named — not mid-sweep on a
        // worker — at O(distinct values) cost rather than one probe
        // per tuple (a 100k-point list stays cheap to open). This
        // matches the cartesian branch's coverage: per-value
        // validity is checked up front, cross-axis interactions
        // surface at expansion. One shared probe document, patched
        // in place and restored after each axis: targets are
        // re-resolved against the pristine document per axis, so
        // this is safe even for interfering axis paths.
        Value probe = baseDoc_;
        for (size_t a = 0; a < grid_.axes.size(); ++a) {
            std::vector<Value *> targets;
            collectTargets(probe, axisPaths_[a], 0,
                           grid_.axes[a].path, targets);
            std::vector<Value> saved;
            saved.reserve(targets.size());
            for (Value *t : targets)
                saved.push_back(*t);
            // Dedup by hash fast-path + structural equality.
            std::unordered_map<uint64_t, std::vector<const Value *>>
                seen;
            for (const auto &tuple : grid_.pointList) {
                const Value &v = tuple[a];
                auto &bucket = seen[v.hash()];
                bool dup = false;
                for (const Value *p : bucket) {
                    if (*p == v) {
                        dup = true;
                        break;
                    }
                }
                if (dup)
                    continue;
                bucket.push_back(&v);
                for (Value *t : targets)
                    *t = v;
                try {
                    fromJsonValue(probe);
                } catch (const ConfigError &e) {
                    fatal(e.rule(),
                          "sweepGrid: axis '%s' point-list value %s "
                          "does not produce a valid spec: %s",
                          grid_.axes[a].name.c_str(),
                          v.dump(0).c_str(), e.what());
                }
            }
            for (size_t i = 0; i < targets.size(); ++i)
                *targets[i] = saved[i];
        }
        return;
    }
    // Probe every axis value against the base document: the path
    // must resolve AND the overridden document must still parse as a
    // spec (a value of the wrong type, or an unknown enum token,
    // fails here with its axis named — not mid-sweep on a worker).
    // The probe document carries every axis's FRONT value; each
    // candidate value is patched in, checked, and the front
    // restored. With disjoint targets that is order-independent and
    // equal to the old clone-per-probe document.
    if (!axesMayInterfere_) {
        Value probe = baseDoc_;
        std::vector<std::vector<Value *>> targets(grid_.axes.size());
        for (size_t a = 0; a < grid_.axes.size(); ++a) {
            collectTargets(probe, axisPaths_[a], 0,
                           grid_.axes[a].path, targets[a]);
            for (Value *t : targets[a])
                *t = grid_.axes[a].values.front();
        }
        for (size_t a = 0; a < grid_.axes.size(); ++a) {
            for (const Value &v : grid_.axes[a].values) {
                for (Value *t : targets[a])
                    *t = v;
                try {
                    fromJsonValue(probe);
                } catch (const ConfigError &e) {
                    fatal(e.rule(),
                          "sweepGrid: axis '%s' value %s does not "
                          "produce a valid spec: %s",
                          grid_.axes[a].name.c_str(),
                          v.dump(0).c_str(), e.what());
                }
            }
            for (Value *t : targets[a])
                *t = grid_.axes[a].values.front();
        }
        return;
    }
    for (size_t a = 0; a < grid_.axes.size(); ++a) {
        for (const Value &v : grid_.axes[a].values) {
            Value probe = baseDoc_;
            for (size_t b = 0; b < grid_.axes.size(); ++b)
                applyParsed(probe, axisPaths_[b],
                            b == a ? v : grid_.axes[b].values.front(),
                            grid_.axes[b].path);
            try {
                fromJsonValue(probe);
            } catch (const ConfigError &e) {
                fatal(e.rule(),
                      "sweepGrid: axis '%s' value %s does not produce "
                      "a valid spec: %s", grid_.axes[a].name.c_str(),
                      v.dump(0).c_str(), e.what());
            }
        }
    }
}

GridSpecSource::GridSpecSource(const GridSpecSource &other)
    : baseDoc_(other.baseDoc_), baseName_(other.baseName_),
      grid_(other.grid_), axisPaths_(other.axisPaths_),
      axesMayInterfere_(other.axesMayInterfere_), total_(other.total_),
      cursor_(other.cursor_.load(std::memory_order_relaxed))
{
    // The workspace pool is per-instance (its targets point into its
    // owner's workspaces): the copy starts with an empty pool.
}

GridSpecSource::~GridSpecSource() = default;

std::unique_ptr<GridSpecSource::Workspace>
GridSpecSource::acquireWorkspace() const
{
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        if (!pool_.empty()) {
            std::unique_ptr<Workspace> ws = std::move(pool_.back());
            pool_.pop_back();
            return ws;
        }
    }
    auto ws = std::make_unique<Workspace>();
    ws->doc = baseDoc_;
    ws->targets.resize(grid_.axes.size());
    for (size_t a = 0; a < grid_.axes.size(); ++a)
        collectTargets(ws->doc, axisPaths_[a], 0, grid_.axes[a].path,
                       ws->targets[a]);
    ws->name = ws->doc.find("name");
    return ws;
}

void
GridSpecSource::releaseWorkspace(std::unique_ptr<Workspace> ws) const
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    pool_.push_back(std::move(ws));
}

DesignSpec
GridSpecSource::at(size_t index) const
{
    if (index >= total_)
        fatal("GridSpecSource: point %zu out of range (grid has %zu "
              "points)", index, total_);
    // Resolve this point's coordinates (row-major for cartesian
    // grids: first axis outermost) and its encoded name suffix.
    std::vector<const Value *> coords(grid_.axes.size());
    std::string suffix;
    if (!grid_.pointList.empty()) {
        for (size_t a = 0; a < grid_.axes.size(); ++a)
            coords[a] = &grid_.pointList[index][a];
    } else {
        size_t stride = total_;
        for (size_t a = 0; a < grid_.axes.size(); ++a) {
            const GridAxis &axis = grid_.axes[a];
            stride /= axis.values.size();
            coords[a] = &axis.values[(index / stride) %
                                     axis.values.size()];
        }
    }
    for (size_t a = 0; a < grid_.axes.size(); ++a)
        suffix += (suffix.empty() ? "" : ",") + grid_.axes[a].name +
                  "=" + renderAxisValue(*coords[a]);

    if (!axesMayInterfere_) {
        // Fast path: patch a pooled workspace in place. Every target
        // plus the name is overwritten, so nothing from the previous
        // point survives and no undo records are needed. A throwing
        // spec parse simply drops the workspace (the pool re-seeds).
        std::unique_ptr<Workspace> ws = acquireWorkspace();
        for (size_t a = 0; a < grid_.axes.size(); ++a) {
            for (Value *t : ws->targets[a])
                *t = *coords[a];
        }
        if (!suffix.empty())
            *ws->name = Value(baseName_ + "/" + suffix);
        DesignSpec spec = fromJsonValue(ws->doc);
        releaseWorkspace(std::move(ws));
        return spec;
    }
    // Interfering axis paths (one a prefix of another, or two that
    // may alias one target): cached target pointers could dangle
    // inside a replaced subtree, so clone and re-resolve per point.
    Value doc = baseDoc_;
    for (size_t a = 0; a < grid_.axes.size(); ++a)
        applyParsed(doc, axisPaths_[a], *coords[a],
                    grid_.axes[a].path);
    if (!suffix.empty())
        doc.set("name", Value(baseName_ + "/" + suffix));
    return fromJsonValue(doc);
}

std::optional<DesignSpec>
GridSpecSource::next()
{
    size_t index = 0;
    return nextIndexed(index);
}

std::optional<DesignSpec>
GridSpecSource::nextIndexed(size_t &index)
{
    const size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= total_)
        return std::nullopt;
    index = i;
    return at(i);
}

std::vector<DesignSpec>
expandGrid(const DesignSpec &base, const SweepGrid &grid)
{
    GridSpecSource source(base, grid);
    std::vector<DesignSpec> specs;
    specs.reserve(grid.points());
    while (std::optional<DesignSpec> spec = source.next())
        specs.push_back(std::move(*spec));
    return specs;
}

// ---------------------------------------------------- sweep documents

SweepDocument
sweepDocumentFromJson(const std::string &text)
{
    Value doc = Value::parse(text);
    SweepDocument out;
    if (const Value *block = doc.find("sweepGrid"))
        out.grid = gridFromJson(*block);
    out.base = fromJsonValue(doc);
    return out;
}

std::string
toJson(const SweepDocument &doc)
{
    Value v = toJsonValue(doc.base);
    if (!doc.grid.axes.empty())
        v.set("sweepGrid", gridToJson(doc.grid));
    return v.dump(2) + "\n";
}

SweepDocument
loadSweepFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("spec: cannot open '%s' for reading", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return sweepDocumentFromJson(buf.str());
}

} // namespace camj::spec

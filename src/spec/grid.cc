#include "spec/grid.h"

#include <atomic>
#include <charconv>
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

/** Call @p visit on every element a segment's selector names within
 *  @p child. @throws ConfigError when it names none. */
template <typename Visit>
void
forEachSelected(Value &child, const SpecPathSegment &seg,
                const std::string &path, Visit &&visit)
{
    if (!child.isArray())
        fatal(Rule::E018,
              "sweepGrid: path '%s': member '%s' is not an array but "
              "carries selector '[%s]'", path.c_str(),
              seg.member.c_str(), seg.selector.c_str());
    auto &arr = child.mutableArray();
    if (seg.selector == "*") {
        if (arr.empty())
            fatal(Rule::E018,
                  "sweepGrid: path '%s': '%s[*]' matches no elements "
                  "(the array is empty)", path.c_str(),
                  seg.member.c_str());
        for (Value &e : arr)
            visit(e);
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
        visit(arr[idx]);
    } else {
        auto nameOf = [](const Value &e) {
            const Value *n = e.find("name");
            return n != nullptr && n->isString() ? &n->asString()
                                                 : nullptr;
        };
        bool matched = false;
        for (Value &e : arr) {
            const std::string *n = nameOf(e);
            if (n != nullptr && *n == seg.selector) {
                matched = true;
                visit(e);
            }
        }
        if (!matched) {
            std::vector<std::string> names;
            for (const Value &e : arr) {
                if (const std::string *n = nameOf(e))
                    names.push_back(*n);
            }
            fatal(Rule::E018,
                  "sweepGrid: path '%s': no element of '%s' is named "
                  "'%s' (elements: %s)", path.c_str(),
                  seg.member.c_str(), seg.selector.c_str(),
                  joinNames(names).c_str());
        }
    }
}

/** Call @p visit on every node a parsed path addresses within
 *  @p node, from segment @p i on.
 *  @throws ConfigError naming the path and the failing segment. */
template <typename Visit>
void
forEachTarget(Value &node, const std::vector<SpecPathSegment> &segments,
              size_t i, const std::string &path, Visit &&visit)
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

    auto descend = [&](Value &next) {
        if (i + 1 == segments.size())
            visit(next);
        else
            forEachTarget(next, segments, i + 1, path, visit);
    };
    if (seg.hasSelector)
        forEachSelected(*child, seg, path, descend);
    else
        descend(*child);
}

/** A GridSpecSource id no other instance of this process has had. */
uint64_t
nextSourceId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

/** Append an axis value as a point name spells it ("30", "sram",
 *  "true"). A number is spelled as printf's "%g" would: to_chars's
 *  general format at precision 6 is "%.6g" by definition. */
void
appendAxisValue(std::string &out, const Value &v)
{
    switch (v.type()) {
      case Value::Type::String:
        out += v.asString();
        break;
      case Value::Type::Number: {
        char buf[32];
        const std::to_chars_result r =
            std::to_chars(buf, buf + sizeof buf, v.asNumber(),
                          std::chars_format::general, 6);
        out.append(buf, r.ptr);
        break;
      }
      case Value::Type::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      default:
        out += v.dump(0);
        break;
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

// ---------------------------------------------------------- expansion

/** One reusable expansion buffer: a copy of the base document, and the
 *  undo log of the build in progress — every slot a write displaced,
 *  with the value it held. Replaying the log in reverse restores the
 *  base document for any overlap of axis paths: moving a container
 *  Value moves only its pointer, so a slot inside a displaced subtree
 *  is live again by the time its own entry is replayed. */
struct GridSpecSource::Workspace
{
    json::Value doc;
    std::vector<std::pair<json::Value *, json::Value>> undo;
};

GridSpecSource::GridSpecSource(const DesignSpec &base, SweepGrid grid)
    : baseName_(base.name), grid_(std::move(grid)), id_(nextSourceId())
{
    grid_.validate();
    total_ = grid_.points();
    if (grid_.pointList.empty()) {
        size_t stride = total_;
        for (const GridAxis &axis : grid_.axes) {
            stride /= axis.values.size();
            strides_.push_back(stride);
        }
    }
    if (grid_.axes.empty()) {
        // The one point is the base spec as given: there is nothing to
        // write into a document, so no document is built.
        baseSpec_ = base;
        return;
    }
    // Axes expand from the canonical tree toJsonValue writes: a path
    // may name a member only that tree carries, such as a nodeNm the
    // document left at its default. Every point starts from that
    // tree's lowering, not from the spec given: the tree drops what
    // the serializer drops (an Input stage's inputSize), and a point
    // must be the lowering of its written tree.
    baseDoc_ = toJsonValue(base);
    baseSpec_ = fromJsonValue(baseDoc_);
    axisPaths_.reserve(grid_.axes.size());
    for (const GridAxis &axis : grid_.axes) {
        axisPaths_.push_back(parseSpecPath(axis.path));
        // The path must resolve in the base document.
        forEachTarget(baseDoc_, axisPaths_.back(), 0, axis.path,
                      [](Value &) {});
    }
    // An axis writes only inside the member its path is rooted at, so
    // those members are all a point re-lowers.
    for (const SpecMember &member : specMembers()) {
        for (const std::vector<SpecPathSegment> &path : axisPaths_) {
            if (path.front().member == member.key) {
                axisMembers_.push_back(&member);
                break;
            }
        }
    }
    // Build every distinct value of every axis, so a value that does
    // not produce a valid spec (a wrong type, an unknown enum token,
    // a rename a later axis's selector no longer finds) fails here
    // with its axis named — not mid-sweep on a worker. The other axes
    // sit at their front values on a cartesian grid and keep their
    // base values on a point list; one probe per distinct value keeps
    // a 100k-point list cheap to open. Cross-axis interactions beyond
    // that surface at expansion.
    const bool listed = !grid_.pointList.empty();
    std::vector<const Value *> coords(grid_.axes.size(), nullptr);
    if (!listed) {
        for (size_t a = 0; a < grid_.axes.size(); ++a)
            coords[a] = &grid_.axes[a].values.front();
    }
    for (size_t a = 0; a < grid_.axes.size(); ++a) {
        const Value *const held = coords[a];
        // Dedup by hash fast-path + structural equality.
        std::unordered_map<uint64_t, std::vector<const Value *>> seen;
        auto tryValue = [&](const Value &v) {
            auto &bucket = seen[v.hash()];
            for (const Value *p : bucket) {
                if (*p == v)
                    return;
            }
            bucket.push_back(&v);
            coords[a] = &v;
            try {
                probe(coords);
            } catch (const ConfigError &e) {
                fatal(e.rule(),
                      "sweepGrid: axis '%s' %s %s does not produce a "
                      "valid spec: %s", grid_.axes[a].name.c_str(),
                      listed ? "point-list value" : "value",
                      v.dump(0).c_str(), e.message());
            }
        };
        if (listed) {
            for (const auto &tuple : grid_.pointList)
                tryValue(tuple[a]);
        } else {
            for (const Value &v : grid_.axes[a].values)
                tryValue(v);
        }
        coords[a] = held;
    }
    // Every point is the base with its axes' members and its name
    // rewritten, so it is materialized from the base by redoing what
    // those members feed. A base that does not build leaves every
    // point on the whole path, which reports the failure per point.
    pointMembers_ = specMemberBit("name");
    for (const SpecMember *member : axisMembers_)
        pointMembers_ |= specMemberBit(member->key);
    try {
        baseBuilt_ = std::make_shared<const MaterializedSpec>(baseSpec_);
    } catch (const std::exception &) {
        // baseBuilt_ stays null.
    }
}

GridSpecSource::GridSpecSource(const GridSpecSource &other)
    : baseSpec_(other.baseSpec_), baseDoc_(other.baseDoc_),
      baseName_(other.baseName_), grid_(other.grid_),
      axisPaths_(other.axisPaths_), axisMembers_(other.axisMembers_),
      baseBuilt_(other.baseBuilt_), pointMembers_(other.pointMembers_),
      total_(other.total_), strides_(other.strides_), id_(nextSourceId())
{
    // The workspace pool and the id are per-instance: the copy starts
    // with an empty pool and fills SpecPoints of its own.
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
    return ws;
}

void
GridSpecSource::releaseWorkspace(std::unique_ptr<Workspace> ws) const
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    pool_.push_back(std::move(ws));
}

template <typename Coord>
void
GridSpecSource::build(Coord coord, DesignSpec &spec) const
{
    std::unique_ptr<Workspace> ws = acquireWorkspace();
    auto write = [&ws](Value &slot, const Value &value) {
        ws->undo.emplace_back(&slot, std::move(slot));
        slot = value;
    };
    for (size_t a = 0; a < grid_.axes.size(); ++a) {
        if (const Value *v = coord(a))
            forEachTarget(ws->doc, axisPaths_[a], 0, grid_.axes[a].path,
                          [&](Value &slot) { write(slot, *v); });
    }
    for (const SpecMember *member : axisMembers_)
        member->lower(ws->doc, spec);
    for (auto it = ws->undo.rbegin(); it != ws->undo.rend(); ++it)
        *it->first = std::move(it->second);
    ws->undo.clear();
    releaseWorkspace(std::move(ws));
}

DesignSpec
GridSpecSource::probe(const std::vector<const Value *> &coords) const
{
    DesignSpec spec = baseSpec_;
    build([&coords](size_t a) { return coords[a]; }, spec);
    return spec;
}

const Value *
GridSpecSource::coord(size_t index, size_t a) const
{
    // Row-major for cartesian grids: first axis outermost.
    if (!grid_.pointList.empty())
        return &grid_.pointList[index][a];
    const std::vector<Value> &values = grid_.axes[a].values;
    return &values[(index / strides_[a]) % values.size()];
}

void
GridSpecSource::pointName(size_t index, std::string &name) const
{
    name.assign(baseName_);
    name += '/';
    for (size_t a = 0; a < grid_.axes.size(); ++a) {
        if (a > 0)
            name += ',';
        name += grid_.axes[a].name;
        name += '=';
        appendAxisValue(name, *coord(index, a));
    }
}

DesignSpec
GridSpecSource::at(size_t index) const
{
    if (index >= total_)
        fatal("GridSpecSource: point %zu out of range (grid has %zu "
              "points)", index, total_);
    if (grid_.axes.empty())
        return baseSpec_;
    DesignSpec spec = baseSpec_;
    build([&](size_t a) { return coord(index, a); }, spec);
    pointName(index, spec.name);
    return spec;
}

void
GridSpecSource::pointAt(size_t index, SpecPoint &point) const
{
    if (index >= total_)
        fatal("GridSpecSource: point %zu out of range (grid has %zu "
              "points)", index, total_);
    // A point this source filled holds the base in every member but
    // the axes' and the name, which are rewritten below; any other
    // starts over.
    if (point.sourceId != id_) {
        point.spec = baseSpec_;
        point.built.reset();
        point.error = nullptr;
        point.sourceId = id_;
    }
    if (grid_.axes.empty())
        return;
    build([&](size_t a) { return coord(index, a); }, point.spec);
    pointName(index, point.spec.name);
    if (!baseBuilt_)
        return;
    // Every member outside pointMembers_ is the base's here too.
    if (!point.built)
        point.built = *baseBuilt_;
    // What spec.materialize() would throw is handed over, not thrown:
    // the evaluator reports it as the whole path does.
    point.error = nullptr;
    try {
        point.built->rebuild(point.spec, pointMembers_);
    } catch (...) {
        point.error = std::current_exception();
    }
}

std::vector<DesignSpec>
expandGrid(const DesignSpec &base, const SweepGrid &grid)
{
    GridSpecSource source(base, grid);
    std::vector<DesignSpec> specs;
    specs.reserve(source.totalPoints());
    for (size_t i = 0; i < source.totalPoints(); ++i)
        specs.push_back(source.at(i));
    return specs;
}

// ---------------------------------------------------- sweep documents

SweepDocument
sweepDocumentFromJson(const std::string &text)
{
    return sweepDocumentFromJson(Value::parse(text));
}

SweepDocument
sweepDocumentFromJson(const Value &doc)
{
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

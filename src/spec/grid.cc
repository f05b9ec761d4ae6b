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
 *  @p child, with its index. @throws ConfigError when it names none. */
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
        for (size_t k = 0; k < arr.size(); ++k)
            visit(arr[k], k);
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
        visit(arr[idx], idx);
    } else {
        auto nameOf = [](const Value &e) {
            const Value *n = e.find("name");
            return n != nullptr && n->isString() ? &n->asString()
                                                 : nullptr;
        };
        bool matched = false;
        for (size_t k = 0; k < arr.size(); ++k) {
            const std::string *n = nameOf(arr[k]);
            if (n != nullptr && *n == seg.selector) {
                matched = true;
                visit(arr[k], k);
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

/** What a trail entry holds for a segment without a selector. */
constexpr size_t kWhole = SIZE_MAX;

constexpr SpecMemberMask kName = specMemberBit("name");

/** Call @p visit on every node a parsed path addresses within
 *  @p node, from segment @p i on; @p trail, one entry per segment,
 *  holds the element each selector picked on the way (kWhole for
 *  none).
 *  @throws ConfigError naming the path and the failing segment. */
template <typename Visit>
void
forEachTarget(Value &node, const std::vector<SpecPathSegment> &segments,
              size_t i, const std::string &path, std::vector<size_t> &trail,
              Visit &&visit)
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

    auto descend = [&](Value &next, size_t element) {
        trail[i] = element;
        if (i + 1 == segments.size())
            visit(next);
        else
            forEachTarget(next, segments, i + 1, path, trail, visit);
    };
    if (seg.hasSelector)
        forEachSelected(*child, seg, path, descend);
    else
        descend(*child, kWhole);
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
    if (pointList.empty()) {
        size_t n = 1;
        for (const GridAxis &axis : axes) {
            if (axis.values.size() > kMaxPoints / n)
                fatal(Rule::E018,
                      "sweepGrid: the axes' value counts multiply past "
                      "2^53 (%zu) points, the largest point index a "
                      "JSONL result carries exactly", kMaxPoints);
            n *= axis.values.size();
        }
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

namespace
{

/** The field of @p owner, an object of table @p t, spelled @p key;
 *  null when neither the table nor the owner's variant has one. */
const Field *
fieldNamed(const FieldTable &t, void *owner, std::string_view key)
{
    for (const FieldTable *table : {&t, variantOf(t, owner)}) {
        if (table == nullptr)
            continue;
        for (const Field &f : table->fields) {
            if (f.key == key)
                return &f;
        }
    }
    return nullptr;
}

bool
isScalar(FieldKind kind)
{
    return kind != FieldKind::Shape && kind != FieldKind::StringList &&
           kind != FieldKind::Object && kind != FieldKind::ObjectList;
}

} // namespace

void *
GridSpecSource::Hop::into(void *owner) const
{
    void *p = field->at(owner);
    if (element == kWhole)
        return p;
    return element < field->nested->size(p)
               ? field->nested->element(p, element)
               : nullptr;
}

GridSpecSource::GridSpecSource(const DesignSpec &base, SweepGrid grid)
    : baseName_(base.name), grid_(std::move(grid)), id_(nextSourceId())
{
    grid_.validate();
    total_ = grid_.points();
    if (grid_.axes.empty()) {
        // The one point is the base spec as given: there is nothing to
        // write into a document, so no document is built.
        baseSpec_ = base;
        return;
    }
    const bool listed = !grid_.pointList.empty();
    if (!listed) {
        size_t stride = total_;
        for (const GridAxis &axis : grid_.axes) {
            stride /= axis.values.size();
            strides_.push_back(stride);
        }
    }
    // Axes expand from the canonical tree toJsonValue writes: a path
    // may name a member only that tree carries, such as a nodeNm the
    // document left at its default. Every point starts from that
    // tree's lowering, not from the spec given: the tree drops what
    // the serializer drops (an Input stage's inputSize), and a point
    // must be the lowering of its written tree.
    Value doc = toJsonValue(base);
    baseSpec_ = fromJsonValue(doc);
    writes_ = kName;
    SpecMemberMask reshaped = 0;
    axes_.resize(grid_.axes.size());
    for (size_t a = 0; a < axes_.size(); ++a) {
        Axis &axis = axes_[a];
        axis.path = parseSpecPath(grid_.axes[a].path);
        // The path must resolve in the base document. Each target it
        // selects there is a chain of fields of the lowered base, which
        // the tree mirrors key for key, except the version.
        std::vector<size_t> trail(axis.path.size());
        forEachTarget(doc, axis.path, 0, grid_.axes[a].path, trail,
                      [&](Value &) {
            const FieldTable *table = &kSpecTable;
            void *owner = &baseSpec_;
            for (size_t i = 0; i < trail.size(); ++i) {
                const Field *f =
                    fieldNamed(*table, owner, axis.path[i].member);
                // Writing a unit's kind, which picks the fields its
                // element has, or a list element whole, is lowering the
                // element again.
                if (f == nullptr ||
                    (!table->variants.empty() && f == table->fields.data()) ||
                    (i + 1 == trail.size() && trail[i] != kWhole &&
                     f->kind == FieldKind::ObjectList)) {
                    axis.viaTree = true;
                    return;
                }
                axis.hops.push_back({f, trail[i]});
                if (i + 1 < trail.size()) {
                    owner = axis.hops.back().into(owner);
                    table = f->nested;
                }
            }
        });
        const Hop *leaf = axis.hops.empty() ? nullptr : &axis.hops.back();
        axis.root = specMemberBit(axis.path.front().member);
        // A write to a scalar other than a name leaves the tree's shape
        // and names as they were, so a later axis resolves as in the
        // base; after any other write, a later path in the same member
        // is resolved on the tree.
        axis.viaTree = axis.viaTree || (reshaped & axis.root) != 0;
        if (axis.viaTree || leaf->field->key == "name" ||
            (leaf->element == kWhole && !isScalar(leaf->field->kind)))
            reshaped |= axis.root;
        const bool inElement = !axis.viaTree && axis.path.size() > 1 &&
                               axis.hops.front().element != kWhole;
        axis.writes = inElement ? specFieldBits(axis.path[0].member,
                                                axis.path[1].member)
                                : axis.root;
        writes_ |= axis.writes;
        roots_ |= axis.root;
        // A cartesian axis's name fragments ("rate=30"), spelled once.
        for (size_t v = 0; !listed && v < grid_.axes[a].values.size(); ++v) {
            std::string &fragment =
                axis.fragments.emplace_back(grid_.axes[a].name);
            fragment += '=';
            appendAxisValue(fragment, grid_.axes[a].values[v]);
        }
    }
    // The tree route starts from the axes' members of the base tree,
    // kept when an axis takes it at every point.
    for (const Axis &axis : axes_) {
        if (axis.viaTree) {
            treeBase_ = toJsonValue(baseSpec_, roots_);
            break;
        }
    }
    // Build every value of every axis, so a value that does
    // not produce a valid spec (a wrong type, an unknown enum token,
    // a rename a later axis's selector no longer finds) fails here
    // with its axis named — not mid-sweep on a worker. The other axes
    // sit at their front values on a cartesian grid and keep their
    // base values on a point list, whose values are probed once each
    // however many points repeat them, so a 100k-point list is cheap
    // to open. Cross-axis interactions beyond that surface at
    // expansion.
    DesignSpec probed;
    std::vector<const Value *> coords(grid_.axes.size(), nullptr);
    if (!listed) {
        for (size_t a = 0; a < grid_.axes.size(); ++a)
            coords[a] = &grid_.axes[a].values.front();
    }
    for (size_t a = 0; a < grid_.axes.size(); ++a) {
        const Value *const held = coords[a];
        // A point list's values, deduplicated by hash fast-path +
        // structural equality.
        std::unordered_map<uint64_t, std::vector<const Value *>> seen;
        auto tryValue = [&](const Value &v) {
            if (listed) {
                auto &bucket = seen[v.hash()];
                for (const Value *p : bucket) {
                    if (*p == v)
                        return;
                }
                bucket.push_back(&v);
            }
            coords[a] = &v;
            try {
                probed = baseSpec_; // reuses the last probe's buffers
                build([&coords](size_t b) { return coords[b]; }, probed);
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
    // Every point is the base with its axes' fields and its name
    // rewritten, so it is materialized from the base by redoing what
    // those feed. A base that does not build leaves every point on the
    // whole path, which reports the failure per point.
    try {
        baseBuilt_ = std::make_shared<const MaterializedSpec>(baseSpec_);
    } catch (const std::exception &) {
        // baseBuilt_ stays null.
    }
    // Each point spells its own name, so the base's copies carry none.
    baseSpec_.name.clear();
}

bool
GridSpecSource::write(const Axis &axis, const Value &v, DesignSpec &spec)
{
    const size_t depth = axis.path.size();
    for (size_t t = 0; t < axis.hops.size(); t += depth) {
        void *owner = &spec;
        for (size_t h = t; owner != nullptr && h + 1 < t + depth; ++h)
            owner = axis.hops[h].into(owner);
        if (owner == nullptr)
            return false;
        const Hop &leaf = axis.hops[t + depth - 1];
        void *field = leaf.field->at(owner);
        if (leaf.element == kWhole) {
            assignField(*leaf.field, v, owner);
        } else if (leaf.field->kind == FieldKind::Shape) {
            Shape &s = *static_cast<Shape *>(field);
            (leaf.element == 0   ? s.width
             : leaf.element == 1 ? s.height
                                 : s.channels) = v.asInt();
        } else {
            auto &list = *static_cast<std::vector<std::string> *>(field);
            if (leaf.element >= list.size())
                return false;
            list[leaf.element] = v.asString();
        }
    }
    return true;
}

template <typename Coord>
bool
GridSpecSource::build(Coord coord, DesignSpec &spec) const
{
    bool typed = true;
    for (size_t a = 0; a < axes_.size(); ++a)
        typed = typed && !(axes_[a].viaTree && coord(a) != nullptr);
    try {
        for (size_t a = 0; typed && a < axes_.size(); ++a) {
            if (const Value *v = coord(a))
                typed = write(axes_[a], *v, spec);
        }
        if (typed)
            return true;
    } catch (const ConfigError &) {
        // Which write fails first, and the text it fails with, follow
        // the tree: the tree route spells it.
    }
    // The tree route: the axes' members of the base tree, written and
    // lowered over spec's, whose other members are the base's.
    Value doc = treeBase_.isNull() ? toJsonValue(baseSpec_, roots_)
                                   : treeBase_;
    if (Value *name = doc.find("name"))
        *name = Value(baseName_);
    std::vector<size_t> trail;
    for (size_t a = 0; a < axes_.size(); ++a) {
        if (const Value *v = coord(a)) {
            trail.resize(axes_[a].path.size());
            forEachTarget(doc, axes_[a].path, 0, grid_.axes[a].path, trail,
                          [v](Value &slot) { slot = *v; });
        }
    }
    fromJsonValue(doc, roots_, spec);
    return false;
}

DesignSpec
GridSpecSource::probe(const std::vector<const Value *> &coords) const
{
    DesignSpec spec = baseSpec_;
    spec.name = baseName_;
    build([&coords](size_t a) { return coords[a]; }, spec);
    return spec;
}

const Value *
GridSpecSource::coord(size_t index, size_t a) const
{
    if (!grid_.pointList.empty())
        return &grid_.pointList[index][a];
    // Row-major for cartesian grids: first axis outermost.
    const std::vector<Value> &values = grid_.axes[a].values;
    return &values[(index / strides_[a]) % values.size()];
}

void
GridSpecSource::pointName(size_t index, std::string &name) const
{
    // A cartesian point's name is joined from fragments, sized first so
    // that it is allocated once; a point list's is spelled per point.
    auto fragment = [&](size_t a) -> const std::string & {
        return axes_[a].fragments[coord(index, a) -
                                  grid_.axes[a].values.data()];
    };
    size_t size = baseName_.size() + axes_.size();
    for (size_t a = 0; grid_.pointList.empty() && a < axes_.size(); ++a)
        size += fragment(a).size();
    name.reserve(size);
    name.assign(baseName_);
    for (size_t a = 0; a < axes_.size(); ++a) {
        name += a == 0 ? '/' : ',';
        if (grid_.pointList.empty()) {
            name += fragment(a);
        } else {
            name += grid_.axes[a].name;
            name += '=';
            appendAxisValue(name, grid_.pointList[index][a]);
        }
    }
}

DesignSpec
GridSpecSource::at(size_t index) const
{
    if (index >= total_)
        fatal("GridSpecSource: point %zu out of range (grid has %zu "
              "points)", index, total_);
    DesignSpec spec = baseSpec_;
    if (axes_.empty())
        return spec;
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
    // A point this source filled holds the base in every field but the
    // axes' and the name, which are rewritten below; any other starts
    // over.
    if (point.sourceId != id_) {
        point.spec = baseSpec_;
        point.built.reset();
        point.error = nullptr;
        point.sourceId = id_;
    }
    if (axes_.empty())
        return;
    // A build that throws leaves the spec half written.
    point.sourceId = 0;
    const bool typed =
        build([&](size_t a) { return coord(index, a); }, point.spec);
    point.sourceId = id_;
    pointName(index, point.spec.name);
    if (!baseBuilt_)
        return;
    if (!point.built)
        point.built = *baseBuilt_;
    // What spec.materialize() would throw is handed over, not thrown:
    // the evaluator reports it as the whole path does. A point the tree
    // built may differ from the last anywhere in the axes' members.
    point.error = nullptr;
    try {
        point.built->rebuild(point.spec, typed ? writes_ : roots_ | kName);
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

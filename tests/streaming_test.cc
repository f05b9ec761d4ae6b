/**
 * @file
 * Tests for the streaming sweep pipeline: SpecSources (vector,
 * generator, lazy SweepGrid expansion), ResultSinks (collect,
 * callback, in-order, top-K, JSONL), cooperative cancellation, the
 * spec-delta materialization cache, and the thread-count policy.
 *
 * The load-bearing guarantees: an in-order streaming sweep is
 * bit-identical to runSerial() over the same specs, cancellation
 * stops promptly, and the top-K selector agrees with
 * sort-after-collect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "explore/incremental.h"
#include "explore/jsonl.h"
#include "explore/sweep.h"
#include "spec/grid.h"
#include "spec/samples.h"
#include "spec/shard.h"
#include "usecases/studies.h"

namespace camj
{
namespace
{

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

/** Every point of a source, in index order. */
std::vector<spec::DesignSpec>
pointsOf(const spec::SpecSource &source)
{
    std::vector<spec::DesignSpec> specs;
    for (size_t i = 0; i < source.totalPoints(); ++i)
        specs.push_back(source.at(i));
    return specs;
}

void
expectSameResults(const std::vector<SweepResult> &a,
                  const std::vector<SweepResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].designName, b[i].designName);
        EXPECT_EQ(a[i].feasible, b[i].feasible) << a[i].designName;
        EXPECT_EQ(a[i].error, b[i].error);
        // Bit-identical energies, not just approximately equal.
        EXPECT_EQ(a[i].report.total(), b[i].report.total())
            << a[i].designName;
        ASSERT_EQ(a[i].report.units.size(), b[i].report.units.size());
        for (size_t u = 0; u < a[i].report.units.size(); ++u) {
            EXPECT_EQ(a[i].report.units[u].energy,
                      b[i].report.units[u].energy)
                << a[i].designName << "/" << a[i].report.units[u].name;
        }
    }
}

// --------------------------------------------------------- SpecSource

TEST(SpecSource, VectorSourceIndexesItsVector)
{
    std::vector<spec::DesignSpec> specs = {
        spec::sampleDetectorSpec(30.0, 130),
        spec::sampleDetectorSpec(30.0, 65)};
    spec::VectorSpecSource source(specs);
    ASSERT_EQ(source.totalPoints(), specs.size());
    std::vector<spec::DesignSpec> out = pointsOf(source);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].name, specs[0].name);
    EXPECT_EQ(out[1].name, specs[1].name);
    // Asking again gives the same point: a source has no cursor.
    EXPECT_EQ(source.at(0).name, specs[0].name);
    EXPECT_THROW(source.at(2), ConfigError);
}

TEST(SpecSource, GeneratorSourceCoversItsCount)
{
    spec::GeneratorSpecSource counted(
        [](size_t) { return spec::sampleDetectorSpec(30.0, 65); }, 3);
    EXPECT_EQ(counted.totalPoints(), 3u);
    EXPECT_EQ(pointsOf(counted).size(), 3u);
    EXPECT_THROW(counted.at(3), ConfigError);

    // A generator that gives no point inside its count is an error
    // naming the index, not a shorter sweep.
    spec::GeneratorSpecSource short_one(
        [](size_t i) -> std::optional<spec::DesignSpec> {
            if (i >= 2)
                return std::nullopt;
            return spec::sampleDetectorSpec(30.0, 65);
        },
        3);
    EXPECT_EQ(short_one.at(1).name, spec::sampleDetectorSpec(30.0, 65).name);
    try {
        short_one.at(2);
        FAIL() << "a missing point inside the count was not refused";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("no point 2 of its 3"),
                  std::string::npos)
            << e.what();
    }

    EXPECT_THROW(spec::GeneratorSpecSource(nullptr, 1), ConfigError);
}

TEST(SpecSource, PaperStudySourceMatchesRegistryExactly)
{
    std::vector<spec::DesignSpec> registry = allPaperStudySpecs();
    spec::GeneratorSpecSource source = paperStudySource();
    ASSERT_EQ(source.totalPoints(), registry.size());
    std::vector<spec::DesignSpec> streamed = pointsOf(source);
    ASSERT_EQ(streamed.size(), registry.size());
    for (size_t i = 0; i < registry.size(); ++i) {
        EXPECT_EQ(streamed[i].name, registry[i].name) << i;
        // Same serialized document, not just the same name.
        EXPECT_EQ(spec::toJson(streamed[i]), spec::toJson(registry[i]))
            << registry[i].name;
    }
}

// ---------------------------------------------------------- SweepGrid

spec::SweepGrid
detectorGrid()
{
    spec::SweepGrid grid;
    grid.axes = {
        {"rate", "fps", {json::Value(15.0), json::Value(30.0),
                         json::Value(60.0)}},
        {"bufnode", "memories[ActBuf].nodeNm",
         {json::Value(130), json::Value(65)}},
    };
    return grid;
}

TEST(SweepGrid, PointsIsTheCartesianProduct)
{
    EXPECT_EQ(detectorGrid().points(), 6u);
    EXPECT_EQ(spec::SweepGrid{}.points(), 1u);
}

TEST(SweepGrid, LazyExpansionAppliesAxesAndEncodesCoordinates)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    spec::GridSpecSource source(base, detectorGrid());
    ASSERT_EQ(source.totalPoints(), 6u);

    std::vector<spec::DesignSpec> points = pointsOf(source);
    ASSERT_EQ(points.size(), 6u);
    // Row-major: first axis outermost, last axis fastest.
    EXPECT_EQ(points[0].name, base.name + "/rate=15,bufnode=130");
    EXPECT_EQ(points[1].name, base.name + "/rate=15,bufnode=65");
    EXPECT_EQ(points[5].name, base.name + "/rate=60,bufnode=65");
    EXPECT_DOUBLE_EQ(points[0].fps, 15.0);
    EXPECT_DOUBLE_EQ(points[5].fps, 60.0);
    ASSERT_EQ(points[0].memories.size(), 1u);
    EXPECT_EQ(points[0].memories[0].nodeNm, 130);
    EXPECT_EQ(points[1].memories[0].nodeNm, 65);

    // Eager expansion is the same sequence.
    std::vector<spec::DesignSpec> eager =
        spec::expandGrid(base, detectorGrid());
    ASSERT_EQ(eager.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(spec::toJson(eager[i]), spec::toJson(points[i]));

    // Every expanded point still passes structural validation.
    for (const spec::DesignSpec &p : points)
        EXPECT_NO_THROW(p.validate());
}

TEST(SweepGrid, WildcardAndIndexSelectors)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    spec::SweepGrid grid;
    grid.axes = {{"node", "memories[*].nodeNm", {json::Value(110)}}};
    std::vector<spec::DesignSpec> points =
        spec::expandGrid(base, grid);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].memories[0].nodeNm, 110);

    grid.axes = {{"node", "memories[0].nodeNm", {json::Value(180)}}};
    EXPECT_EQ(spec::expandGrid(base, grid)[0].memories[0].nodeNm, 180);
}

TEST(SweepGrid, BadGridsFailFastAtConstruction)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    auto expand = [&](const std::string &name, const std::string &path) {
        spec::SweepGrid grid;
        grid.axes = {{name, path, {json::Value(1)}}};
        spec::GridSpecSource source(base, grid);
    };
    // Unknown member, unknown element, index out of range (including
    // a stoull-overflowing selector), malformed selector: all named
    // in the error at construction time.
    EXPECT_THROW(expand("a", "fpz"), ConfigError);
    EXPECT_THROW(expand("a", "memories[NoSuchBuf].nodeNm"), ConfigError);
    EXPECT_THROW(expand("a", "memories[7].nodeNm"), ConfigError);
    EXPECT_THROW(expand("a", "memories[99999999999999999999].nodeNm"),
                 ConfigError);
    EXPECT_THROW(expand("a", "memories[.nodeNm"), ConfigError);
    EXPECT_THROW(expand("a=b", "fps"), ConfigError);

    // An axis VALUE that breaks spec parsing (unknown enum token)
    // is also caught at construction, with the axis named — never
    // mid-sweep on a worker thread.
    spec::SweepGrid bad_value;
    bad_value.axes = {{"model", "memories[ActBuf].model",
                       {json::Value("sram"), json::Value("flash")}}};
    try {
        spec::GridSpecSource source(base, bad_value);
        FAIL() << "bad axis value did not throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("axis 'model'"),
                  std::string::npos)
            << e.what();
    }

    spec::SweepGrid empty_values;
    empty_values.axes = {{"rate", "fps", {}}};
    EXPECT_THROW(empty_values.validate(), ConfigError);

    spec::SweepGrid dup;
    dup.axes = {{"rate", "fps", {json::Value(1.0)}},
                {"rate", "digitalClock", {json::Value(1e6)}}};
    EXPECT_THROW(dup.validate(), ConfigError);
}

TEST(SweepGrid, SweepDocumentRoundTripsThroughJson)
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid = detectorGrid();

    const std::string text = spec::toJson(doc);
    EXPECT_NE(text.find("\"sweepGrid\""), std::string::npos);
    spec::SweepDocument back = spec::sweepDocumentFromJson(text);
    EXPECT_EQ(spec::toJson(back), text);
    EXPECT_EQ(back.grid.points(), doc.grid.points());

    std::vector<spec::DesignSpec> a = spec::expandGrid(doc.base, doc.grid);
    std::vector<spec::DesignSpec> b = spec::expandGrid(back.base, back.grid);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(spec::toJson(a[i]), spec::toJson(b[i]));

    // A plain spec document reads back as a gridless sweep document.
    spec::SweepDocument plain =
        spec::sweepDocumentFromJson(spec::toJson(doc.base));
    EXPECT_TRUE(plain.grid.axes.empty());
    EXPECT_EQ(plain.grid.points(), 1u);
}

TEST(SweepGrid, ExplicitPointListExpandsNonCartesian)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    spec::SweepGrid grid;
    // Coupled axes: high rates only at the small node — exactly the
    // tuples listed, not their cartesian product.
    grid.axes = {{"rate", "fps", {}},
                 {"node", "memories[ActBuf].nodeNm", {}}};
    grid.pointList = {
        {json::Value(15.0), json::Value(130)},
        {json::Value(30.0), json::Value(65)},
        {json::Value(120.0), json::Value(65)},
    };
    EXPECT_EQ(grid.points(), 3u);

    spec::GridSpecSource source(base, grid);
    std::vector<spec::DesignSpec> points = pointsOf(source);
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].name, base.name + "/rate=15,node=130");
    EXPECT_EQ(points[2].name, base.name + "/rate=120,node=65");
    EXPECT_DOUBLE_EQ(points[0].fps, 15.0);
    EXPECT_EQ(points[0].memories[0].nodeNm, 130);
    EXPECT_DOUBLE_EQ(points[2].fps, 120.0);
    EXPECT_EQ(points[2].memories[0].nodeNm, 65);

    // at() is random access over the same tuples.
    EXPECT_EQ(spec::toJson(source.at(1)), spec::toJson(points[1]));
}

TEST(SweepGrid, PointListValidation)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);

    // Tuple arity must match the axis count.
    spec::SweepGrid ragged;
    ragged.axes = {{"rate", "fps", {}},
                   {"node", "memories[ActBuf].nodeNm", {}}};
    ragged.pointList = {{json::Value(15.0)}};
    EXPECT_THROW(ragged.validate(), ConfigError);

    // A point list without axes has nothing to bind to.
    spec::SweepGrid axisless;
    axisless.pointList = {{json::Value(15.0)}};
    EXPECT_THROW(axisless.validate(), ConfigError);

    // A bad tuple value fails at construction with the axis and
    // value named (one probe per DISTINCT value, so huge point
    // lists stay cheap to open).
    spec::SweepGrid bad;
    bad.axes = {{"model", "memories[ActBuf].model", {}}};
    bad.pointList = {{json::Value("sram")}, {json::Value("flash")}};
    try {
        spec::GridSpecSource source(base, bad);
        FAIL() << "bad point value did not throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("axis 'model'"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("flash"),
                  std::string::npos)
            << e.what();
    }

    // With a point list, empty per-axis value lists are legal.
    spec::SweepGrid ok;
    ok.axes = {{"rate", "fps", {}}};
    ok.pointList = {{json::Value(15.0)}, {json::Value(60.0)}};
    EXPECT_NO_THROW(ok.validate());
}

TEST(SweepGrid, PointListDocumentRoundTripsAndShards)
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {{"rate", "fps", {}},
                     {"node", "memories[ActBuf].nodeNm", {}}};
    doc.grid.pointList = {
        {json::Value(15.0), json::Value(130)},
        {json::Value(30.0), json::Value(65)},
        {json::Value(120.0), json::Value(65)},
        {json::Value(240.0), json::Value(45)},
    };

    const std::string text = spec::toJson(doc);
    EXPECT_NE(text.find("\"points\""), std::string::npos);
    spec::SweepDocument back = spec::sweepDocumentFromJson(text);
    EXPECT_EQ(spec::toJson(back), text);
    EXPECT_EQ(back.grid.points(), 4u);
    ASSERT_EQ(back.grid.pointList.size(), 4u);

    // Point-list documents shard like any other sweep: a descriptor
    // embedding the grid round-trips and its source holds exactly
    // the assigned tuples.
    const spec::ShardPlan plan = spec::planShards(4, 2);
    spec::ShardDescriptor d{back, plan.shards[1]};
    spec::ShardDescriptor loaded =
        spec::shardDescriptorFromJson(spec::shardDescriptorToJson(d));
    EXPECT_EQ(loaded.shard.count(), 2u);
    spec::GridSpecSource grid_source = loaded.doc.source();
    spec::ShardSpecSource source(grid_source, loaded.shard);
    std::vector<spec::DesignSpec> points = pointsOf(source);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].fps, 120.0);
    EXPECT_DOUBLE_EQ(points[1].fps, 240.0);
}

// ------------------------------------------------ expansion oracle

/** An axis value as point names encode it ("30", "sram", "true"). */
std::string
oracleRender(const json::Value &v)
{
    switch (v.type()) {
      case json::Value::Type::String:
        return v.asString();
      case json::Value::Type::Number:
        return strprintf("%g", v.asNumber());
      case json::Value::Type::Bool:
        return v.asBool() ? "true" : "false";
      default:
        return v.dump(0);
    }
}

/** Every node @p segs address within @p node, from segment @p i on. */
void
oracleResolve(json::Value &node,
              const std::vector<spec::SpecPathSegment> &segs, size_t i,
              std::vector<json::Value *> &out)
{
    json::Value *child = node.find(segs[i].member);
    ASSERT_NE(child, nullptr) << segs[i].member;
    std::vector<json::Value *> picked;
    if (!segs[i].hasSelector) {
        picked.push_back(child);
    } else {
        const std::string &sel = segs[i].selector;
        json::Value::Array &arr = child->mutableArray();
        for (size_t k = 0; k < arr.size(); ++k) {
            const json::Value *name = arr[k].find("name");
            bool hit = sel == "*";
            if (!hit && spec::isIndexSelector(sel))
                hit = std::stoul(sel) == k;
            else if (!hit)
                hit = name != nullptr && name->asString() == sel;
            if (hit)
                picked.push_back(&arr[k]);
        }
    }
    for (json::Value *p : picked) {
        if (i + 1 == segs.size())
            out.push_back(p);
        else
            oracleResolve(*p, segs, i + 1, out);
    }
}

/** Point @p index by clone-and-apply: a fresh copy of the base
 *  document, each axis applied in declaration order against the
 *  document the earlier axes left, then the point name, then the
 *  whole tree lowered. */
spec::DesignSpec
oraclePoint(const spec::DesignSpec &base, const spec::SweepGrid &grid,
            size_t index)
{
    json::Value doc = spec::toJsonValue(base);
    std::string suffix;
    size_t stride = grid.points();
    for (size_t a = 0; a < grid.axes.size(); ++a) {
        const spec::GridAxis &axis = grid.axes[a];
        const json::Value *v = nullptr;
        if (!grid.pointList.empty()) {
            v = &grid.pointList[index][a];
        } else {
            stride /= axis.values.size();
            v = &axis.values[(index / stride) % axis.values.size()];
        }
        std::vector<json::Value *> targets;
        oracleResolve(doc, spec::parseSpecPath(axis.path), 0, targets);
        for (json::Value *t : targets)
            *t = *v;
        suffix += (suffix.empty() ? "" : ",") + axis.name + "=" +
                  oracleRender(*v);
    }
    if (!suffix.empty())
        doc.set("name", json::Value(base.name + "/" + suffix));
    return spec::fromJsonValue(doc);
}

/** The JSONL line a sweep streams for @p spec as point @p index,
 *  evaluated by a one-frame Simulator::run: the whole path (validate,
 *  materialize, the stages), beside its serialized bytes. */
std::string
simulatedLine(const spec::DesignSpec &spec, size_t index = 0)
{
    SimulationOptions options;
    options.checkMode = CheckMode::Report;
    SimulationOutcome out = Simulator(options).run(spec);
    SweepResult r;
    r.index = index;
    r.designName = spec.name;
    r.feasible = out.feasible;
    r.error = std::move(out.error);
    r.ruleCode = std::move(out.ruleCode);
    r.report = std::move(out.report);
    r.frames = out.frames;
    r.snrPenaltyDb = out.snrPenaltyDb;
    return sweepResultToJsonl(r);
}

/** The lines runShard streams for every point of @p source on
 *  @p threads workers: each point through a worker's point path
 *  (SpecSource::pointAt), materialized from the grid's base. */
std::vector<std::string>
engineLines(const spec::GridSpecSource &source, int threads)
{
    std::ostringstream out;
    JsonlSink sink(out);
    runShard(source, spec::planShards(source.totalPoints(), 1).shards[0],
             threads, SimulationOptions{}, sink);
    std::vector<std::string> lines;
    std::istringstream in(out.str());
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Every point's line through the engine, at 1 and 4 threads, against
 *  the line of Simulator::run(source.at(i)): the point path against
 *  the whole path, failure texts and rule codes included. */
void
expectPointPathMatchesWholePath(const spec::GridSpecSource &source)
{
    std::vector<std::string> want;
    for (size_t i = 0; i < source.totalPoints(); ++i)
        want.push_back(simulatedLine(source.at(i), i));
    for (const int threads : {1, 4}) {
        const std::vector<std::string> got = engineLines(source, threads);
        ASSERT_EQ(got.size(), want.size()) << threads << " threads";
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], want[i])
                << "point " << i << " at " << threads << " threads";
    }
}

/** Every point of @p grid over @p base against the oracle, by toJson
 *  bytes and by simulated JSONL line, and through the engine's point
 *  path against the whole path. */
void
expectOracleExpansion(const spec::DesignSpec &base,
                      const spec::SweepGrid &grid)
{
    spec::GridSpecSource source(base, grid);
    expectPointPathMatchesWholePath(source);
    ASSERT_EQ(source.totalPoints(), grid.points());
    for (size_t i = 0; i < grid.points(); ++i) {
        const spec::DesignSpec point = source.at(i);
        const spec::DesignSpec oracle = oraclePoint(base, grid, i);
        EXPECT_EQ(spec::toJson(point), spec::toJson(oracle))
            << "point " << i << " of " << grid.axes[0].path;
        EXPECT_EQ(simulatedLine(point), simulatedLine(oracle))
            << "point " << i << " of " << grid.axes[0].path;
        // Neither reads an Input stage's inputSize, which the
        // canonical tree drops; a point still lowers from that tree.
        ASSERT_EQ(point.stages.size(), oracle.stages.size());
        for (size_t s = 0; s < point.stages.size(); ++s)
            EXPECT_EQ(point.stages[s].params.inputSize.str(),
                      oracle.stages[s].params.inputSize.str())
                << "point " << i << " stage " << s;
    }
}

/** A seeded path to a scalar of @p doc that a grid axis can address
 *  ("memories[0].nodeNm", "stages[2].outputSize[1]"), and the value
 *  there; false when the walk ends at an empty or nested array. */
bool
seededLeaf(const json::Value &doc, std::mt19937_64 &rng, std::string &path,
           json::Value &leaf)
{
    const json::Value *node = &doc;
    path.clear();
    while (node->isObject()) {
        const json::Value::Object &members = node->asObject();
        if (members.empty())
            return false;
        const auto &[key, value] = members[rng() % members.size()];
        path += (path.empty() ? "" : ".") + key;
        node = &value;
        if (node->isArray()) {
            const json::Value::Array &elements = node->asArray();
            if (elements.empty())
                return false;
            const size_t i = rng() % elements.size();
            path += "[" + std::to_string(i) + "]";
            node = &elements[i];
            if (node->isArray())
                return false;
        }
    }
    leaf = *node;
    return true;
}

/** Seeded replacements for the scalar @p leaf: numbers that break a
 *  bound, strings that break a name or a reference, a flipped bool. */
std::vector<json::Value>
leafMutations(const json::Value &leaf, std::mt19937_64 &rng)
{
    if (leaf.isNumber()) {
        const double v = leaf.asNumber();
        std::vector<json::Value> out = {json::Value(-1.0), json::Value(0.0),
                                        json::Value(3.0),
                                        json::Value(2.0 * v + 1.0)};
        std::shuffle(out.begin(), out.end(), rng);
        out.resize(2);
        return out;
    }
    if (leaf.isString())
        return {json::Value(""), json::Value("Other"), json::Value("Input")};
    if (leaf.isBool())
        return {json::Value(!leaf.asBool())};
    return {};
}

/** One axis rooted at each member of the spec member table that
 *  @p base's canonical document carries, each writing values that
 *  change what the member lowers to. */
std::vector<spec::GridAxis>
memberAxes(const spec::DesignSpec &base)
{
    const json::Value doc = spec::toJsonValue(base);
    auto nonEmpty = [&](const char *key) {
        return !doc.at(key).asArray().empty();
    };
    std::vector<spec::GridAxis> axes;
    for (const spec::SpecMember &member : spec::specMembers()) {
        const std::string key = member.key;
        const json::Value *held = doc.find(key);
        if (held == nullptr)
            continue;
        spec::GridAxis axis{key, key, {}};
        if (key == "camjSpecVersion") {
            axis.values = {json::Value(1)};
        } else if (key == "name") {
            axis.values = {json::Value("renamed"), json::Value("other")};
        } else if (key == "fps") {
            axis.values = {json::Value(15.0), json::Value(60.0)};
        } else if (key == "digitalClock") {
            axis.values = {json::Value(25e6), json::Value(200e6)};
        } else if (key == "stages") {
            axis.path = "stages[*].bitDepth";
            axis.values = {json::Value(8), json::Value(6)};
        } else if (key == "analogArrays") {
            axis.path = "analogArrays[*].componentArea";
            axis.values = {json::Value(0.0), json::Value(1e-11)};
        } else if (key == "memories" && nonEmpty("memories")) {
            axis.path = "memories[*].activeFraction";
            axis.values = {json::Value(0.5), json::Value(1.0)};
        } else if (key == "units" && nonEmpty("units")) {
            axis.path = "units[*].clock";
            axis.values = {json::Value(25e6), json::Value(100e6)};
        } else if (key == "adcOutputMemory") {
            axis.values = {*held, json::Value("")};
        } else if (key == "mipi" || key == "tsv") {
            axis.path = key + ".energyPerByte";
            axis.values = {json::Value(0.0), json::Value(5e-11)};
        } else if (key == "pipelineOutputBytes") {
            axis.values = {json::Value(4096), json::Value(1 << 20)};
        } else if (key == "mapping") {
            const json::Value::Array &pairs = held->asArray();
            axis.path = "mapping[0].hw";
            axis.values = {pairs.front().at("hw"),
                           pairs.back().at("hw")};
        } else {
            // An empty array: the member as a whole.
            axis.values = {*held};
        }
        axes.push_back(std::move(axis));
    }
    return axes;
}

TEST(SweepGrid, ExpansionMatchesACloneAndApplyOracle)
{
    // A base with a second memory, so a wildcard and a named selector
    // address different sets.
    json::Value two = spec::toJsonValue(spec::sampleDetectorSpec(30.0, 65));
    json::Value::Array &mems = two.find("memories")->mutableArray();
    ASSERT_EQ(mems.size(), 1u);
    const json::Value actbuf = mems[0];
    json::Value spare = actbuf;
    spare.set("name", json::Value("Spare"));
    mems.push_back(spare);
    const spec::DesignSpec base = spec::fromJsonValue(two);

    json::Value quarter = actbuf;
    quarter.set("activeFraction", json::Value(0.25));
    json::Value one_mem = json::Value::makeArray();
    one_mem.push(quarter);
    json::Value both_mems = json::Value::makeArray();
    both_mems.push(actbuf);
    both_mems.push(spare);

    const json::Value n65(65), n45(45), n130(130), n110(110);
    std::vector<std::pair<spec::DesignSpec, spec::SweepGrid>> cases;
    const spec::SweepDocument study = spec::sampleDetectorStudy();
    cases.push_back({study.base, study.grid});
    spec::SweepGrid listed;
    listed.axes = {{"rate", "fps", {}},
                   {"node", "memories[ActBuf].nodeNm", {}}};
    listed.pointList = {{json::Value(15.0), n130},
                        {json::Value(120.0), n65},
                        {json::Value(15.0), n45}};
    cases.push_back({base, listed});
    auto grid = [](std::vector<spec::GridAxis> axes) {
        spec::SweepGrid g;
        g.axes = std::move(axes);
        return g;
    };
    const spec::GridAxis all{"all", "memories[*].nodeNm", {n65, n45}};
    const spec::GridAxis buf{"buf", "memories[ActBuf].nodeNm",
                             {n130, n110}};
    const spec::GridAxis elem{"elem", "memories[ActBuf]",
                              {actbuf, quarter}};
    const spec::GridAxis whole{"mems", "memories", {one_mem, both_mems}};
    const spec::GridAxis duty{"duty", "memories[*].activeFraction",
                              {json::Value(0.5), json::Value(0.75)}};
    const spec::GridAxis first{"first", "memories[0].nodeNm",
                               {n65, n45}};
    // Renaming the first memory "Spare" widens what "spare" selects,
    // so a later point that keeps the name "ActBuf" must see that
    // memory's base nodeNm again: what the undo log restores.
    const spec::GridAxis ren{"ren", "memories[0].name",
                             {json::Value("ActBuf"), json::Value("Spare")}};
    const spec::GridAxis spares{"spare", "memories[Spare].nodeNm",
                                {n130, n45}};
    for (const spec::SweepGrid &g :
         {grid({all, buf}), grid({buf, all}), grid({elem, buf}),
          grid({buf, elem}), grid({whole, duty}), grid({first, buf}),
          grid({ren, spares})})
        cases.push_back({base, g});

    // Axes that move stages and hardware while the mapping stays, so
    // a point's stage targets must follow the indices the names move
    // to: every stage in reverse order, and the two memories swapped
    // under a resident Input mapped onto the second.
    spec::DesignSpec resident = base;
    resident.stages.push_back({{.name = "Resident",
                                .op = StageOp::Input,
                                .outputSize = {4, 4, 1}},
                               {}});
    resident.mapping.emplace_back("Resident", "Spare");
    const json::Value resident_stages =
        spec::toJsonValue(resident).at("stages");
    json::Value reversed = json::Value::makeArray();
    for (auto it = resident_stages.asArray().rbegin();
         it != resident_stages.asArray().rend(); ++it)
        reversed.push(*it);
    json::Value swapped = json::Value::makeArray();
    swapped.push(spare);
    swapped.push(actbuf);
    cases.push_back(
        {resident, grid({{"order", "stages", {resident_stages, reversed}},
                         {"swap", "memories", {both_mems, swapped}}})});

    for (const auto &[b, g] : cases)
        expectOracleExpansion(b, g);

    // Each member of the table is re-lowered on its own (a one-axis
    // grid per member) and all at once (a point list over every
    // axis), on a 3D base carrying every member of the table, on
    // chips built from custom cell chains (one without memories or
    // units), and on the detector; each base's Input stage carries an
    // inputSize the canonical tree drops.
    const std::vector<std::string> keys = {
        "edgaze-3D-In-65nm", "isscc22-pis", "jssc21i-pwm",
        "detector-65nm-30fps"};
    const std::vector<PaperStudy> studies = allPaperStudies();
    size_t bases = 0;
    for (const PaperStudy &study : studies) {
        if (std::find(keys.begin(), keys.end(), study.key) == keys.end())
            continue;
        ++bases;
        spec::DesignSpec dropped = study.spec;
        for (spec::StageSpec &stage : dropped.stages) {
            if (stage.params.op == StageOp::Input)
                stage.params.inputSize = {3, 5, 7};
        }
        const std::vector<spec::GridAxis> axes = memberAxes(dropped);
        if (study.key == keys.front()) {
            EXPECT_EQ(axes.size(), spec::specMembers().size());
        }
        for (const spec::GridAxis &axis : axes) {
            spec::SweepGrid one;
            one.axes = {axis};
            expectOracleExpansion(dropped, one);
        }
        spec::SweepGrid every;
        every.axes = axes;
        for (size_t p = 0; p < 3; ++p) {
            std::vector<json::Value> tuple;
            for (size_t a = 0; a < axes.size(); ++a) {
                const std::vector<json::Value> &v = axes[a].values;
                tuple.push_back(v[(p + a) % v.size()]);
            }
            every.pointList.push_back(std::move(tuple));
        }
        expectOracleExpansion(dropped, every);
    }
    EXPECT_EQ(bases, keys.size());

    // Axes that break a member at each step of validate and
    // materialize: the point path fails with the whole path's text
    // and rule code (compared line by line above), which is the one
    // each check or part throws.
    const spec::DesignSpec detector = spec::sampleDetectorSpec(30.0, 65);
    ASSERT_GE(detector.stages.size(), 2u);
    const std::string first_stage = detector.stages[0].params.name;
    const std::string second_stage = detector.stages[1].params.name;
    const struct
    {
        spec::GridAxis axis;
        const char *code;
        const char *text;
    } breaks[] = {
        {{"rate", "fps", {json::Value(30.0), json::Value(-1.0)}},
         "CAMJ-E001", "fps must be positive"},
        {{"buf", "memories[ActBuf].name",
          {json::Value("ActBuf"), json::Value("Other")}},
         "CAMJ-E003", "references unknown memory 'ActBuf'"},
        {{"duty", "memories[ActBuf].activeFraction",
          {json::Value(1.0), json::Value(1.5)}},
         "CAMJ-E013", ""},
        {{"node", "memories[ActBuf].nodeNm",
          {json::Value(65), json::Value(3)}},
         "CAMJ-E013", ""},
        {{"dup", "stages[1].name",
          {json::Value(second_stage), json::Value(first_stage)}},
         "CAMJ-E002", "duplicate stage"},
    };
    for (const auto &b : breaks) {
        spec::SweepGrid g;
        g.axes = {b.axis};
        expectOracleExpansion(detector, g);
        const std::vector<std::string> lines =
            engineLines(spec::GridSpecSource(detector, g), 1);
        ASSERT_EQ(lines.size(), 2u);
        const JsonlRecord broken = parseJsonlLine(lines[1]);
        EXPECT_FALSE(broken.feasible) << b.axis.path;
        EXPECT_EQ(broken.ruleCode, b.code) << broken.error;
        EXPECT_NE(broken.error.find(b.text), std::string::npos)
            << broken.error;
    }

    // Seeded single-member mutations of every paper study, each a
    // one-axis point list. A value the member's lowering refuses
    // fails at construction instead, and is skipped.
    std::mt19937_64 rng(20261019);
    size_t mutated = 0;
    for (const PaperStudy &study : studies) {
        const json::Value doc = spec::toJsonValue(study.spec);
        for (int k = 0; k < 4; ++k) {
            std::string path;
            json::Value leaf;
            if (!seededLeaf(doc, rng, path, leaf))
                continue;
            spec::SweepGrid one;
            one.axes = {{"m", path, {}}};
            for (const json::Value &v : leafMutations(leaf, rng))
                one.pointList.push_back({v});
            if (one.pointList.empty())
                continue;
            try {
                spec::GridSpecSource probe(study.spec, one);
            } catch (const ConfigError &) {
                continue;
            }
            ++mutated;
            SCOPED_TRACE(study.key + " " + path);
            expectOracleExpansion(study.spec, one);
        }
    }
    EXPECT_GE(mutated, 40u);
}

TEST(SweepGrid, PointNamesSpellNumbersAsPercentG)
{
    // About 10,000 seeded doubles: random finite bit patterns,
    // integers, tiny and huge magnitudes of both signs, and scaled
    // decimals; each point name must spell its value as "%g".
    std::mt19937_64 rng(20261018);
    std::vector<json::Value> values = {json::Value(0.0),
                                       json::Value(-0.0)};
    while (values.size() < 10000) {
        double d = 0.0;
        switch (values.size() % 5) {
          case 0: {
            const uint64_t bits = rng();
            std::memcpy(&d, &bits, sizeof d);
            if (!std::isfinite(d))
                continue;
            break;
          }
          case 1:
            d = static_cast<double>(static_cast<int64_t>(rng() >> 20) -
                                    (int64_t{1} << 43));
            break;
          case 2:
            d = std::ldexp(static_cast<double>(rng() >> 11),
                           -1100 + static_cast<int>(rng() % 100));
            break;
          case 3:
            d = std::ldexp(static_cast<double>(rng() >> 11),
                           900 + static_cast<int>(rng() % 70));
            break;
          default:
            d = static_cast<double>(static_cast<int64_t>(rng() % 2000001) -
                                    1000000) /
                std::pow(10.0, static_cast<int>(rng() % 12));
            break;
        }
        if (rng() % 2 == 0)
            d = -d;
        values.push_back(json::Value(d));
    }
    const spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    spec::SweepGrid grid;
    grid.axes = {{"rate", "fps", values}};
    spec::GridSpecSource source(base, grid);
    ASSERT_EQ(source.totalPoints(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
        char expected[64];
        std::snprintf(expected, sizeof expected, "%g",
                      values[i].asNumber());
        const spec::DesignSpec point = source.at(i);
        ASSERT_EQ(point.name, base.name + "/rate=" + expected)
            << "value " << values[i].dump(0);
        EXPECT_EQ(point.fps, values[i].asNumber());
    }
}

TEST(SweepGrid, ConstructionErrorsKeepTheirText)
{
    // A point lowers only the members its axes write, yet a bad value
    // throws exactly what lowering the whole document throws, naming
    // the field it was read from.
    const spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    auto error = [&](const char *name, const char *path,
                     json::Value value) {
        spec::SweepGrid grid;
        grid.axes = {{name, path, {std::move(value)}}};
        try {
            spec::GridSpecSource source(base, grid);
        } catch (const ConfigError &e) {
            EXPECT_STREQ(e.code(), "CAMJ-E018") << e.what();
            return std::string(e.what());
        }
        return std::string("no error");
    };
    EXPECT_EQ(error("op", "stages[1].op", json::Value("bogus")),
              "fatal: sweepGrid: axis 'op' value \"bogus\" does not "
              "produce a valid spec: stages[Bin].op: spec: unknown stage op "
              "'bogus' (known: Input, Binning, Conv2d, DepthwiseConv2d, "
              "FullyConnected, MaxPool, AvgPool, ElementwiseSub, "
              "ElementwiseAdd, AbsDiff, Threshold, Scale, LogResponse, "
              "Absolute, CompareSample, Identity)");
    EXPECT_EQ(error("kind", "memories[ActBuf].kind", json::Value("lifo")),
              "fatal: sweepGrid: axis 'kind' value \"lifo\" does not "
              "produce a valid spec: memories[ActBuf].kind: spec: unknown "
              "memory kind "
              "'lifo' (known: fifo, line-buffer, double-buffer, "
              "frame-buffer)");
    EXPECT_EQ(error("rate", "fps", json::Value("fast")),
              "fatal: sweepGrid: axis 'rate' value \"fast\" does not "
              "produce a valid spec: fps: json: expected number, got "
              "string");
}

TEST(SweepGrid, RenameALaterSelectorMissesFailsAtConstruction)
{
    // Axes apply in declaration order, so once "ren" renames the
    // buffer, "node" no longer finds it: the probe of that value
    // rejects the grid with the renaming axis and value named.
    spec::SweepGrid grid;
    grid.axes = {{"ren", "memories[0].name",
                  {json::Value("ActBuf"), json::Value("Other")}},
                 {"node", "memories[ActBuf].nodeNm",
                  {json::Value(65), json::Value(45)}}};
    try {
        spec::GridSpecSource source(spec::sampleDetectorSpec(30.0, 65),
                                    grid);
        FAIL() << "the rename grid built " << source.totalPoints()
               << " points";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_STREQ(e.code(), "CAMJ-E018") << what;
        EXPECT_NE(what.find("axis 'ren'"), std::string::npos) << what;
        EXPECT_NE(what.find("\"Other\""), std::string::npos) << what;
    }
}

TEST(SweepGrid, GridStreamMatchesBatchOverExpandedSpecs)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    SweepEngine engine(SweepOptions{.threads = 4});

    spec::GridSpecSource source(base, detectorGrid());
    CollectSink sink;
    engine.runStream(source, sink);

    std::vector<SweepResult> batch =
        engine.run(spec::expandGrid(base, detectorGrid()));
    expectSameResults(sink.results(), batch);
}

TEST(SweepGrid, APointFilledByAnotherSourceStartsOver)
{
    // pointAt builds a point into the spec and Design the worker's
    // SpecPoint keeps, re-lowering only the axes' members. Two grids
    // over the same axes whose bases differ outside those members,
    // a copy of the first, and a vector source take turns filling one
    // SpecPoint: every point is still at(i), and evaluates as it.
    spec::SweepDocument doc = spec::sampleDetectorStudy();
    const spec::GridSpecSource first = doc.source();
    doc.base.digitalClock *= 2.0;
    doc.base.mipi.energyPerByte *= 3.0;
    const spec::GridSpecSource second = doc.source();
    const spec::GridSpecSource copy = first;
    const spec::VectorSpecSource vector({spec::sampleDetectorSpec(60.0, 45)});
    const spec::SpecSource *sources[] = {&first, &second, &first,
                                         &copy,  &vector, &second};
    SimulationOptions report;
    report.checkMode = CheckMode::Report;
    const Simulator reference(report);
    IncrementalEvaluator evaluator(report);
    spec::SpecPoint point;
    for (size_t k = 0; k < 60; ++k) {
        const spec::SpecSource &source = *sources[k % std::size(sources)];
        const size_t i = (k * 37) % source.totalPoints();
        source.pointAt(i, point);
        const spec::DesignSpec want = source.at(i);
        ASSERT_EQ(point.spec, want) << k << ": " << want.name;
        const SimulationOutcome got = evaluator.evaluate(point);
        const SimulationOutcome ref = reference.run(want);
        EXPECT_EQ(got.feasible, ref.feasible) << want.name;
        EXPECT_EQ(got.error, ref.error) << want.name;
        EXPECT_EQ(got.report.csv(), ref.report.csv()) << want.name;
    }
}

// ------------------------------------------------- streaming semantics

TEST(StreamingSweep, InOrderDeliveryIsBitIdenticalToRunSerial)
{
    // The mixed 27-study batch exercises every spec feature (custom
    // cell chains, STT-RAM and regfile memories, stacked layers).
    std::vector<spec::DesignSpec> specs = allPaperStudySpecs();
    ASSERT_EQ(specs.size(), 27u);

    SweepEngine engine(SweepOptions{.threads = 4});
    std::vector<SweepResult> serial = engine.runSerial(specs);

    std::vector<SweepResult> streamed;
    bool finished = false;
    CallbackSink collect(
        [&](SweepResult r) {
            streamed.push_back(std::move(r));
            return true;
        },
        [&] { finished = true; });
    InOrderSink inorder(collect);
    spec::VectorSpecSource source(specs);
    StreamStats stats = engine.runStream(source, inorder);

    EXPECT_TRUE(finished);
    EXPECT_FALSE(stats.cancelled);
    EXPECT_EQ(stats.produced, specs.size());
    EXPECT_EQ(stats.delivered, specs.size());
    // Strictly 0, 1, 2, ... — the exact sequence runSerial produces.
    for (size_t i = 0; i < streamed.size(); ++i)
        EXPECT_EQ(streamed[i].index, i);
    expectSameResults(streamed, serial);
    EXPECT_EQ(inorder.pending(), 0u);
}

TEST(StreamingSweep, CollectSinkEqualsBatchRun)
{
    std::vector<spec::DesignSpec> specs = spec::sampleDetectorGrid(
        {180, 65}, {1.0, 30.0, 3840.0}); // spans the boundary
    SweepEngine engine(SweepOptions{.threads = 2});

    spec::VectorSpecSource source(specs);
    CollectSink sink;
    engine.runStream(source, sink);
    expectSameResults(sink.results(), engine.run(specs));
}

TEST(StreamingSweep, SinkCancellationStopsPromptly)
{
    // A 100-point stream, cancelled by the sink after 5 accepts: the
    // engine must stop pulling almost immediately — at most one
    // in-flight point per worker beyond what the sink saw.
    const int workers = 4;
    spec::GeneratorSpecSource source(
        [](size_t) { return spec::sampleDetectorSpec(30.0, 65); },
        100);
    size_t accepted = 0;
    CallbackSink sink([&](SweepResult) { return ++accepted < 5; });
    SweepEngine engine(SweepOptions{.threads = workers});
    StreamStats stats = engine.runStream(source, sink);

    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(accepted, 5u);
    // The rejecting accept() is not counted as delivered.
    EXPECT_EQ(stats.delivered, 4u);
    EXPECT_LE(stats.produced, 5u + static_cast<size_t>(workers));
    EXPECT_LT(stats.produced, 100u);
}

TEST(StreamingSweep, SourceExceptionsPropagateInsteadOfTerminating)
{
    // A source throwing on a worker thread must not std::terminate:
    // the sweep stops, finish() still runs, and the error is
    // rethrown on the calling thread.
    spec::GeneratorSpecSource source(
        [](size_t i) -> std::optional<spec::DesignSpec> {
            if (i >= 3)
                fatal("generator exploded at point %zu", i);
            return spec::sampleDetectorSpec(30.0, 65);
        },
        100);
    bool finished = false;
    CallbackSink sink([](SweepResult) { return true; },
                      [&] { finished = true; });
    SweepEngine engine(SweepOptions{.threads = 4});
    EXPECT_THROW(engine.runStream(source, sink), ConfigError);
    EXPECT_TRUE(finished);
}

TEST(StreamingSweep, SinkExceptionsPropagateInsteadOfTerminating)
{
    spec::GeneratorSpecSource source(
        [](size_t) { return spec::sampleDetectorSpec(30.0, 65); },
        50);
    size_t accepted = 0;
    CallbackSink sink([&](SweepResult) -> bool {
        if (++accepted == 2)
            fatal("sink exploded");
        return true;
    });
    SweepEngine engine(SweepOptions{.threads = 4});
    EXPECT_THROW(engine.runStream(source, sink), ConfigError);
}

TEST(StreamingSweep, CancelTokenStopsBeforeAnyWork)
{
    spec::GeneratorSpecSource source(
        [](size_t) { return spec::sampleDetectorSpec(30.0, 65); }, 50);
    CancelToken cancel;
    cancel.cancel();
    bool finished = false;
    CallbackSink sink([](SweepResult) { return true; },
                      [&] { finished = true; });
    StreamStats stats =
        SweepEngine(SweepOptions{.threads = 2}).runStream(source, sink,
                                                          &cancel);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.produced, 0u);
    EXPECT_EQ(stats.delivered, 0u);
    EXPECT_TRUE(finished); // finish() runs even on cancellation
}

TEST(StreamingSweep, TopKSinkAgreesWithSortAfterCollect)
{
    // Studies plus two infeasible points (which top-K must ignore).
    std::vector<spec::DesignSpec> specs = allPaperStudySpecs();
    specs.push_back(spec::sampleDetectorSpec(100000.0, 65));
    specs.push_back(spec::sampleDetectorSpec(100000.0, 130));

    const size_t k = 5;
    SweepEngine engine(SweepOptions{.threads = 4});
    spec::VectorSpecSource source(specs);
    TopKSink topk(k);
    engine.runStream(source, topk);

    std::vector<SweepResult> all = engine.run(specs);
    std::vector<SweepResult> expect;
    for (const SweepResult &r : all) {
        if (r.feasible)
            expect.push_back(r);
    }
    std::sort(expect.begin(), expect.end(),
              [](const SweepResult &a, const SweepResult &b) {
                  return a.totalEnergy() < b.totalEnergy();
              });
    expect.resize(k);

    ASSERT_EQ(topk.best().size(), k);
    EXPECT_EQ(topk.dropped(), specs.size() - k);
    for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(topk.best()[i].totalEnergy(),
                  expect[i].totalEnergy())
            << i;
    }
}

TEST(StreamingSweep, JsonlSinkWritesOneParseableLinePerPoint)
{
    std::vector<spec::DesignSpec> specs = {
        spec::sampleDetectorSpec(30.0, 65),
        spec::sampleDetectorSpec(100000.0, 65)}; // one infeasible
    std::ostringstream out;
    JsonlSink sink(out);
    spec::VectorSpecSource source(specs);
    SweepEngine(SweepOptions{.threads = 2}).runStream(source, sink);
    EXPECT_EQ(sink.written(), specs.size());

    std::istringstream lines(out.str());
    std::string line;
    size_t n = 0, feasible = 0;
    while (std::getline(lines, line)) {
        json::Value v = json::Value::parse(line);
        EXPECT_TRUE(v.has("index"));
        EXPECT_TRUE(v.has("design"));
        if (v.at("feasible").asBool()) {
            ++feasible;
            EXPECT_GT(v.at("totalEnergy").asNumber(), 0.0);
            EXPECT_TRUE(v.has("categories"));
        } else {
            EXPECT_FALSE(v.at("error").asString().empty());
        }
        ++n;
    }
    EXPECT_EQ(n, specs.size());
    EXPECT_EQ(feasible, 1u);
}

TEST(StreamingSweep, InOrderSinkReordersCompletions)
{
    std::vector<size_t> seen;
    CallbackSink record([&](SweepResult r) {
        seen.push_back(r.index);
        return true;
    });
    InOrderSink inorder(record);
    auto result = [](size_t index) {
        SweepResult r;
        r.index = index;
        return r;
    };
    EXPECT_TRUE(inorder.accept(result(2)));
    EXPECT_TRUE(inorder.accept(result(0)));
    EXPECT_TRUE(inorder.accept(result(1)));
    inorder.finish();
    EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2}));
}

TEST(StreamingSweep, OverflowingPointIsOneCodedInfeasibleLine)
{
    // 1e308 J per MIPI byte overflows the frame energy to +inf; the
    // writer cannot print it, so the Energy stage classifies it and
    // the sweep writes every line. The engine at 1 and 4 threads
    // writes the bytes of the memo-free runSerial.
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {{"mipi", "mipi.energyPerByte",
                      {json::Value(1e-12), json::Value(1e308),
                       json::Value(2e-12)}}};
    auto linesOf = [&](int threads, int frames) {
        spec::GridSpecSource source = doc.source();
        std::ostringstream out;
        JsonlSink lines(out);
        InOrderSink ordered(lines);
        SweepOptions options;
        options.threads = threads;
        options.sim.frames = frames;
        SweepEngine(options).runStream(source, ordered);
        std::vector<JsonlRecord> records;
        std::istringstream in(out.str());
        for (std::string line; std::getline(in, line);)
            records.push_back(parseJsonlLine(line));
        return std::make_pair(out.str(), records);
    };
    auto serialBytes = [&](int frames) {
        SweepOptions options;
        options.sim.frames = frames;
        std::string bytes;
        for (const SweepResult &r :
             SweepEngine(options).runSerial(pointsOf(doc.source())))
            bytes += sweepResultToJsonl(r) + "\n";
        return bytes;
    };
    const std::string reference = serialBytes(1);
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(strprintf("threads %d", threads));
        const auto [bytes, records] = linesOf(threads, 1);
        EXPECT_EQ(bytes, reference);
        ASSERT_EQ(records.size(), 3u);
        EXPECT_TRUE(records[0].feasible);
        EXPECT_FALSE(records[1].feasible);
        EXPECT_EQ(records[1].ruleCode, "CAMJ-D004");
        EXPECT_NE(records[1].error.find("unit 'MIPI-CSI2' alone "
                                        "gives inf J"),
                  std::string::npos)
            << records[1].error;
        EXPECT_TRUE(records[2].feasible);
    }

    // A finite frame energy (about 4e307 J) over 5 frames totals past
    // the largest double: finishOutcome classifies the product.
    doc.grid.axes[0].values = {json::Value(1e-12), json::Value(1e307)};
    EXPECT_TRUE(linesOf(1, 1).second[1].feasible);
    const auto [bytes, records] = linesOf(2, 5);
    EXPECT_EQ(bytes, serialBytes(5));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].feasible);
    EXPECT_FALSE(records[1].feasible);
    EXPECT_EQ(records[1].ruleCode, "CAMJ-D004");
    EXPECT_NE(records[1].error.find("5 frames of"), std::string::npos)
        << records[1].error;
}

TEST(StreamingSweep, DefaultEngineEvaluatesThroughTheMemo)
{
    // The canonical axes with a 599-word ActBuf: the closed forms
    // decline, so pass A simulates every point and the memo answers
    // all but the three distinct topologies (the counts of
    // perf_simulator's stridedSweep floors). An engine with default
    // options takes that path and writes the bytes of the memo-free
    // runSerial.
    spec::SweepDocument doc = spec::sampleDetectorStudy();
    for (spec::MemorySpec &m : doc.base.memories) {
        if (m.name == "ActBuf")
            m.capacityWords = 599;
    }
    const spec::GridSpecSource source = doc.source();
    ASSERT_EQ(source.totalPoints(), 108u);
    const SweepEngine engine(SweepOptions{.threads = 1});
    std::ostringstream out;
    JsonlSink lines(out);
    InOrderSink ordered(lines);
    const StreamStats stats = engine.runStream(source, ordered);
    EXPECT_EQ(stats.cycleSimMemo.hits, 129u);
    EXPECT_EQ(stats.cycleSimMemo.misses, 3u);
    EXPECT_EQ(stats.passes.passASimulated, 108u);

    std::string want;
    for (const SweepResult &r : engine.runSerial(pointsOf(source)))
        want += sweepResultToJsonl(r) + "\n";
    EXPECT_EQ(out.str(), want);
}

TEST(StreamingSweep, GeneratorSourceRunsEachIndexOnceAtAnyThreadCount)
{
    // Workers ask a generator source for its points in any order; the
    // generator runs once per index, one call at a time (so the
    // counts below need no lock of their own), and the bytes do not
    // depend on the thread count.
    constexpr size_t kPoints = 24;
    static constexpr double kRates[] = {1.0, 30.0, 120.0, 3840.0};
    auto bytesOf = [](int threads, std::vector<int> &calls) {
        calls.assign(kPoints, 0);
        spec::GeneratorSpecSource source(
            [&calls](size_t i) -> std::optional<spec::DesignSpec> {
                ++calls[i];
                return spec::sampleDetectorSpec(
                    kRates[i % 4], i < kPoints / 2 ? 130 : 65);
            },
            kPoints);
        std::ostringstream out;
        JsonlSink lines(out);
        InOrderSink ordered(lines);
        SweepEngine(SweepOptions{.threads = threads})
            .runStream(source, ordered);
        return out.str();
    };
    std::vector<int> serial_calls, parallel_calls;
    const std::string serial = bytesOf(1, serial_calls);
    EXPECT_EQ(bytesOf(4, parallel_calls), serial);
    EXPECT_EQ(serial_calls, std::vector<int>(kPoints, 1));
    EXPECT_EQ(parallel_calls, std::vector<int>(kPoints, 1));

    // No point inside the count stops the sweep with the source's
    // error, rethrown on the calling thread.
    spec::GeneratorSpecSource short_one(
        [](size_t i) -> std::optional<spec::DesignSpec> {
            if (i == 5)
                return std::nullopt;
            return spec::sampleDetectorSpec(30.0, 65);
        },
        8);
    CallbackSink sink([](SweepResult) { return true; });
    EXPECT_THROW(SweepEngine(SweepOptions{.threads = 4})
                     .runStream(short_one, sink),
                 ConfigError);
}

// -------------------------------------------------- JSONL merge records

/** @p got equals @p want member by member: doubles bit for bit, raw
 *  byte for byte. */
void
expectSameRecord(const JsonlRecord &got, const JsonlRecord &want)
{
    SCOPED_TRACE(want.raw);
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.design, want.design);
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.ruleCode, want.ruleCode);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.totalEnergy),
              std::bit_cast<uint64_t>(want.totalEnergy));
    ASSERT_EQ(got.categories.size(), want.categories.size());
    for (const auto &[name, e] : want.categories) {
        const auto it = got.categories.find(name);
        ASSERT_NE(it, got.categories.end()) << name;
        EXPECT_EQ(std::bit_cast<uint64_t>(it->second),
                  std::bit_cast<uint64_t>(e))
            << name;
    }
    EXPECT_EQ(got.raw, want.raw);
}

/** Checks jsonlRecordOf against parsing the line back, over every
 *  result of @p results. */
void
expectRecordsMatchTheirLines(const std::vector<SweepResult> &results)
{
    std::string scratch = "stale";
    for (const SweepResult &r : results)
        expectSameRecord(jsonlRecordOf(r, scratch),
                         parseJsonlLine(sweepResultToJsonl(r)));
}

std::vector<SweepResult>
sweepResults(const spec::SpecSource &source, SimulationOptions sim)
{
    SweepOptions options;
    options.threads = 2;
    options.sim = sim;
    CollectSink sink;
    SweepEngine(options).runStream(source, sink);
    return sink.take();
}

/**
 * Fills @p corpus with results whose lines cover what the writer
 * spells: the 27 paper studies (all feasible); the 108 canonical
 * points (feasible and infeasible) at 1 and 3 frames and with the
 * noise metric; and seeded texts with quotes, backslashes, control
 * bytes and UTF-8 in the design name and the error, with numbers the
 * writer spells specially: -0.0 (printed "0"), subnormals, and both
 * sides of the 2^53 integer boundary. Call it under
 * ASSERT_NO_FATAL_FAILURE.
 */
void
lineCorpus(std::vector<SweepResult> &corpus)
{
    auto feasibleIn = [](const std::vector<SweepResult> &results) {
        return static_cast<size_t>(std::count_if(
            results.begin(), results.end(),
            [](const SweepResult &r) { return r.feasible; }));
    };
    // The 27 paper studies.
    spec::GeneratorSpecSource studies = paperStudySource();
    corpus = sweepResults(studies, {});
    ASSERT_EQ(corpus.size(), 27u);
    EXPECT_EQ(feasibleIn(corpus), 27u);

    const spec::SweepDocument canonical = spec::sampleDetectorStudy();
    for (const int frames : {1, 3}) {
        SimulationOptions sim;
        sim.frames = frames;
        spec::GridSpecSource grid = canonical.source();
        const std::vector<SweepResult> results = sweepResults(grid, sim);
        ASSERT_EQ(results.size(), 108u);
        const size_t feasible = feasibleIn(results);
        EXPECT_GT(feasible, 0u) << frames << " frames";
        EXPECT_LT(feasible, 108u) << frames << " frames";
        corpus.insert(corpus.end(), results.begin(), results.end());
    }
    SimulationOptions noisy;
    noisy.withNoise = true;
    spec::GridSpecSource grid = canonical.source();
    const std::vector<SweepResult> results = sweepResults(grid, noisy);
    ASSERT_EQ(results.size(), 108u);
    ASSERT_TRUE(results[0].feasible);
    EXPECT_NE(results[0].snrPenaltyDb, 0.0);
    corpus.insert(corpus.end(), results.begin(), results.end());

    const std::string alphabet[] = {
        "\"", "\\", "\n", "\t", std::string(1, '\0'), "\x01", "\x1f",
        "\x7f", "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x93\xb7", "a",
        " ", "/", "{", "}"};
    std::mt19937 rng(4242);
    auto seededText = [&] {
        std::string text;
        const size_t n = rng() % 24;
        for (size_t i = 0; i < n; ++i)
            text += alphabet[rng() % std::size(alphabet)];
        return text;
    };
    const double numbers[] = {
        -0.0, 0.0, 5e-324, 2.2250738585072009e-308, 9007199254740992.0,
        9007199254740993.0, 9.0e15, 8999999999999999.0, 0.1, 1e300};
    for (size_t k = 0; k < 200; ++k) {
        SweepResult r = results[k % results.size()];
        r.index = k;
        // A name `camj_sweep run` accepts as it is.
        r.designName = k == 0 ? "det \"q\" \\ \xc3\xa9\x01" : seededText();
        if (k % 2 == 0) {
            r.feasible = false;
            r.error = seededText();
            r.ruleCode = k % 4 == 0 ? "CAMJ-D004" : "";
        } else if (r.feasible) {
            for (UnitEnergy &u : r.report.units)
                u.energy = numbers[rng() % std::size(numbers)];
            r.frames = 1 + static_cast<int>(rng() % 3);
            r.snrPenaltyDb = numbers[rng() % std::size(numbers)];
        }
        corpus.push_back(std::move(r));
    }
}

TEST(JsonlRecord, BuiltRecordEqualsTheParsedLine)
{
    std::vector<SweepResult> corpus;
    ASSERT_NO_FATAL_FAILURE(lineCorpus(corpus));
    expectRecordsMatchTheirLines(corpus);
}

/** The line as a json::Value tree renders it: how result lines were
 *  written before json::Writer, kept as the writer's oracle. */
std::string
treeLine(const SweepResult &result)
{
    json::Value o = json::Value::makeObject();
    o.set("index", json::Value(static_cast<int64_t>(result.index)));
    o.set("design", json::Value(result.designName));
    o.set("feasible", json::Value(result.feasible));
    if (!result.feasible) {
        o.set("error", json::Value(result.error));
        if (!result.ruleCode.empty())
            o.set("ruleCode", json::Value(result.ruleCode));
        return o.dump(0);
    }
    o.set("frames", json::Value(result.frames));
    o.set("frameEnergy", json::Value(result.report.total()));
    o.set("totalEnergy", json::Value(result.totalEnergy()));
    json::Value categories = json::Value::makeObject();
    for (EnergyCategory cat : allEnergyCategories())
        categories.set(energyCategoryName(cat),
                       json::Value(result.report.category(cat)));
    o.set("categories", std::move(categories));
    if (result.snrPenaltyDb != 0.0)
        o.set("snrPenaltyDb", json::Value(result.snrPenaltyDb));
    return o.dump(0);
}

TEST(JsonlWriter, WritesTheTreeRenderersBytes)
{
    std::vector<SweepResult> corpus;
    ASSERT_NO_FATAL_FAILURE(lineCorpus(corpus));
    std::string want_file;
    std::string buffer = "kept|";
    for (const SweepResult &r : corpus) {
        const std::string want = treeLine(r);
        EXPECT_EQ(sweepResultToJsonl(r), want);
        // Into a caller's buffer, after what it held.
        buffer.resize(5);
        sweepResultToJsonl(r, buffer);
        EXPECT_EQ(buffer, "kept|" + want);
        want_file += want + "\n";
    }
    // JsonlSink reuses one buffer across lines.
    std::ostringstream out;
    JsonlSink sink(out);
    for (const SweepResult &r : corpus)
        sink.accept(r);
    sink.finish();
    EXPECT_EQ(out.str(), want_file);
}

// ------------------------------------------------- thread-count policy

TEST(SweepEngine, ThreadsForHandlesEveryEdge)
{
    // Unknown hardware concurrency (0) means one worker.
    EXPECT_EQ(SweepEngine::threadsFor(0, 10, 0), 1);
    EXPECT_EQ(SweepEngine::threadsFor(0, 10, 8), 8);
    // Explicit requests clamp to the job count...
    EXPECT_EQ(SweepEngine::threadsFor(4, 3, 8), 3);
    EXPECT_EQ(SweepEngine::threadsFor(16, 100, 1), 16);
    // ...but never drop below one worker, even for empty sweeps.
    EXPECT_EQ(SweepEngine::threadsFor(4, 0, 8), 1);
    EXPECT_EQ(SweepEngine::threadsFor(0, 0, 0), 1);

    SweepEngine engine(SweepOptions{.threads = 16});
    EXPECT_EQ(engine.effectiveThreads(3), 3);
    EXPECT_EQ(engine.effectiveThreads(100), 16);
}

} // namespace
} // namespace camj

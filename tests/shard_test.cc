/**
 * @file
 * Tests for the multi-process sweep sharding subsystem: shard plans
 * partition the global index space exactly, shard descriptors
 * round-trip bit-exactly, a merged set of shard files is
 * byte-identical to a single-process in-order run over the same grid
 * (both through the library API and through the camj_sweep CLI), and
 * the merge reducer fails loudly on gaps, overlaps, duplicates, and
 * short merges.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "explore/jsonl.h"
#include "explore/sweep.h"
#include "spec/samples.h"
#include "spec/shard.h"

namespace camj
{
namespace
{

namespace fs = std::filesystem;

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

/** A fresh per-test scratch directory under the gtest temp root. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("camj_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const fs::path &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    ASSERT_TRUE(out) << path;
}

/** A 12-point study (4 rates x 3 buffer nodes) spanning both sides
 *  of the feasibility boundary, so shard files carry both feasible
 *  lines and error lines. */
spec::SweepDocument
smallStudy()
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {
        {"rate", "fps",
         {json::Value(15.0), json::Value(30.0), json::Value(120.0),
          json::Value(960.0)}},
        {"node", "memories[ActBuf].nodeNm",
         {json::Value(110), json::Value(65), json::Value(45)}},
    };
    return doc;
}

/** The reference bytes: a single-process in-order run over the whole
 *  grid through InOrderSink -> JsonlSink. */
std::string
singleProcessJsonl(const spec::SweepDocument &doc)
{
    std::ostringstream out;
    spec::GridSpecSource source = doc.source();
    JsonlSink lines(out);
    InOrderSink ordered(lines);
    SweepEngine engine(SweepOptions{.threads = 2});
    engine.runStream(source, ordered);
    return out.str();
}

/** One shard's JSONL bytes, exactly as `camj_sweep run` writes them:
 *  local order restored, indices remapped to grid identity. */
std::string
shardJsonl(const spec::SweepDocument &doc,
           const spec::ShardAssignment &assignment)
{
    std::ostringstream out;
    spec::GridSpecSource grid = doc.source();
    spec::ShardSpecSource source(grid, assignment);
    JsonlSink lines(out);
    ReindexSink global(lines, [&](size_t local) {
        return assignment.globalIndex(local);
    });
    InOrderSink ordered(global);
    SweepEngine engine(SweepOptions{.threads = 2});
    engine.runStream(source, ordered);
    return out.str();
}

// ---------------------------------------------------------- shard plans

TEST(ShardPlan, ContiguousRangesPartitionExactly)
{
    for (size_t total : {size_t{0}, size_t{1}, size_t{5}, size_t{12},
                         size_t{107}, size_t{108}}) {
        for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                         size_t{16}}) {
            const spec::ShardPlan plan = spec::planShards(total, n);
            ASSERT_EQ(plan.shards.size(), n);
            size_t cursor = 0, min_count = total, max_count = 0;
            for (const spec::ShardAssignment &a : plan.shards) {
                EXPECT_EQ(a.begin, cursor) << total << "/" << n;
                EXPECT_LE(a.begin, a.end);
                cursor = a.end;
                min_count = std::min(min_count, a.count());
                max_count = std::max(max_count, a.count());
            }
            // Exactly [0, total), balanced to within one point.
            EXPECT_EQ(cursor, total) << total << "/" << n;
            EXPECT_LE(max_count - min_count, 1u) << total << "/" << n;
        }
    }
}

TEST(ShardPlan, StridedShardsCoverEveryIndexOnce)
{
    for (size_t total : {size_t{1}, size_t{12}, size_t{107}}) {
        for (size_t n : {size_t{1}, size_t{3}, size_t{16}}) {
            const spec::ShardPlan plan =
                spec::planShards(total, n, spec::ShardMode::Strided);
            std::vector<size_t> covered;
            for (const spec::ShardAssignment &a : plan.shards) {
                for (size_t l = 0; l < a.count(); ++l)
                    covered.push_back(a.globalIndex(l));
            }
            std::sort(covered.begin(), covered.end());
            ASSERT_EQ(covered.size(), total) << total << "/" << n;
            for (size_t i = 0; i < total; ++i)
                EXPECT_EQ(covered[i], i) << total << "/" << n;
        }
    }
}

TEST(ShardPlan, RejectsBadParameters)
{
    EXPECT_THROW(spec::planShards(10, 0), ConfigError);
    EXPECT_THROW(spec::shardModeFromName("diagonal"), ConfigError);

    spec::ShardAssignment a;
    a.shardIndex = 3;
    a.shardCount = 2;
    a.total = a.end = 10;
    EXPECT_THROW(a.validate(), ConfigError);
    a.shardIndex = 0;
    a.begin = 8;
    a.end = 12; // escapes [0, 10)
    EXPECT_THROW(a.validate(), ConfigError);
}

TEST(ShardAssignment, GlobalIndexBoundsChecked)
{
    const spec::ShardPlan plan =
        spec::planShards(10, 3, spec::ShardMode::Strided);
    const spec::ShardAssignment &last = plan.shards[2];
    ASSERT_EQ(last.count(), 3u); // {2, 5, 8}
    EXPECT_EQ(last.globalIndex(0), 2u);
    EXPECT_EQ(last.globalIndex(2), 8u);
    EXPECT_THROW(last.globalIndex(3), ConfigError);
}

// -------------------------------------------------------- shard sources

TEST(ShardSpecSource, YieldsExactlyTheAssignedSlice)
{
    const spec::SweepDocument doc = smallStudy();
    spec::GridSpecSource grid = doc.source();
    const spec::ShardPlan plan = spec::planShards(grid.totalPoints(), 3);
    for (const spec::ShardAssignment &a : plan.shards) {
        spec::ShardSpecSource source(grid, a);
        ASSERT_EQ(source.totalPoints(), a.count());
        spec::SpecPoint point;
        for (size_t local = 0; local < a.count(); ++local) {
            // The shard's point IS the grid's point, by global index.
            const std::string name = grid.at(a.globalIndex(local)).name;
            EXPECT_EQ(source.at(local).name, name);
            source.pointAt(local, point);
            EXPECT_EQ(point.spec.name, name);
        }
        EXPECT_THROW(source.at(a.count()), ConfigError);
        // The cursor the benchmark's replay walks a shard with numbers
        // the same points by the same local indices.
        size_t local = 0;
        size_t reported = 0;
        while (std::optional<spec::DesignSpec> s =
                   source.nextIndexed(reported)) {
            EXPECT_EQ(reported, local);
            EXPECT_EQ(s->name, source.at(local).name);
            ++local;
        }
        EXPECT_EQ(local, a.count());
    }
}

TEST(ShardSpecSource, WorksOverAnyIndexableSource)
{
    std::vector<spec::DesignSpec> specs;
    for (int node : {180, 130, 110, 65, 45})
        specs.push_back(spec::sampleDetectorSpec(30.0, node));
    spec::VectorSpecSource vec(specs);
    const spec::ShardPlan plan = spec::planShards(5, 2);
    spec::ShardSpecSource tail(vec, plan.shards[1]); // [3, 5)
    std::vector<std::string> names;
    for (size_t i = 0; i < tail.totalPoints(); ++i)
        names.push_back(tail.at(i).name);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], specs[3].name);
    EXPECT_EQ(names[1], specs[4].name);
}

TEST(ShardSpecSource, RejectsAssignmentFromAnotherSweep)
{
    const spec::SweepDocument doc = smallStudy();
    spec::GridSpecSource grid = doc.source(); // 12 points
    const spec::ShardPlan plan = spec::planShards(99, 3);
    EXPECT_THROW(spec::ShardSpecSource(grid, plan.shards[0]),
                 ConfigError);
}

// ---------------------------------------------------------- descriptors

TEST(ShardDescriptor, RoundTripsBitExact)
{
    const spec::SweepDocument doc = smallStudy();
    const spec::ShardPlan plan = spec::planShards(
        doc.grid.points(), 4, spec::ShardMode::Strided);
    for (const spec::ShardAssignment &a : plan.shards) {
        const spec::ShardDescriptor d{doc, a};
        const std::string text = spec::shardDescriptorToJson(d);
        const spec::ShardDescriptor back =
            spec::shardDescriptorFromJson(text);
        EXPECT_EQ(back.shard.mode, a.mode);
        EXPECT_EQ(back.shard.shardIndex, a.shardIndex);
        EXPECT_EQ(back.shard.shardCount, a.shardCount);
        EXPECT_EQ(back.shard.total, a.total);
        EXPECT_EQ(back.shard.begin, a.begin);
        EXPECT_EQ(back.shard.end, a.end);
        // Save -> load -> save is byte-identical.
        EXPECT_EQ(spec::shardDescriptorToJson(back), text);
    }
}

TEST(ShardDescriptor, PlainSweepDocumentLoadsAsWholeSweep)
{
    const spec::SweepDocument doc = smallStudy();
    const spec::ShardDescriptor d =
        spec::shardDescriptorFromJson(spec::toJson(doc));
    EXPECT_EQ(d.shard.shardIndex, 0u);
    EXPECT_EQ(d.shard.shardCount, 1u);
    EXPECT_EQ(d.shard.count(), doc.grid.points());
}

TEST(ShardDescriptor, RejectsPlanDisagreeingWithItsOwnGrid)
{
    const spec::SweepDocument doc = smallStudy(); // 12 points
    spec::ShardDescriptor d{doc, spec::planShards(12, 2).shards[0]};
    std::string text = spec::shardDescriptorToJson(d);
    // A descriptor whose shard block was planned for a different
    // grid: claim 13 total points.
    const size_t pos = text.find("\"total\": 12");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 11, "\"total\": 13");
    EXPECT_THROW(spec::shardDescriptorFromJson(text), ConfigError);
}

TEST(ShardDescriptor, TotalOutsideInt64IsE018)
{
    // 1e19 used to read as INT64_MIN and fail as a negative member.
    const spec::SweepDocument doc = smallStudy();
    std::string text = spec::shardDescriptorToJson(
        spec::ShardDescriptor{doc, spec::planShards(12, 2).shards[0]});
    const size_t pos = text.find("\"total\": 12");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 11, "\"total\": 1e19");
    try {
        spec::shardDescriptorFromJson(text);
        FAIL() << "a total of 1e19 loaded";
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.code(), "CAMJ-E018") << e.what();
        EXPECT_NE(std::string(e.what()).find("number 1e+19"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardDescriptor, WriteShardPlanEmitsLoadableFiles)
{
    const fs::path dir = scratchDir("plan_files");
    const spec::SweepDocument doc = smallStudy();
    const std::vector<std::string> paths = spec::writeShardPlan(
        doc, 3, spec::ShardMode::Contiguous, dir.string(), "study");
    ASSERT_EQ(paths.size(), 3u);
    size_t covered = 0;
    for (size_t k = 0; k < paths.size(); ++k) {
        const spec::ShardDescriptor d =
            spec::shardDescriptorFromJson(readFile(paths[k]));
        EXPECT_EQ(d.shard.shardIndex, k);
        EXPECT_EQ(d.doc.grid.points(), doc.grid.points());
        covered += d.shard.count();
    }
    EXPECT_EQ(covered, doc.grid.points());
}

// ---------------------------------------------------------------- merge

TEST(ShardMerge, MergedShardsAreByteIdenticalToSingleProcess)
{
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);
    ASSERT_FALSE(reference.empty());

    const fs::path dir = scratchDir("merge_identity");
    // 13 shards over 12 points exercises an empty shard file too.
    for (spec::ShardMode mode :
         {spec::ShardMode::Contiguous, spec::ShardMode::Strided}) {
        for (size_t n : {size_t{1}, size_t{3}, size_t{13}}) {
            const spec::ShardPlan plan =
                spec::planShards(doc.grid.points(), n, mode);
            std::vector<std::string> paths;
            for (const spec::ShardAssignment &a : plan.shards) {
                fs::path p = dir / strprintf("%s-%zu-%zu.jsonl",
                                             spec::shardModeName(mode)
                                                 .c_str(),
                                             n, a.shardIndex);
                writeFile(p, shardJsonl(doc, a));
                paths.push_back(p.string());
            }
            std::ostringstream merged;
            const MergeSummary summary = mergeShardFiles(
                paths, merged, 5, doc.grid.points());
            EXPECT_EQ(merged.str(), reference)
                << spec::shardModeName(mode) << " x" << n;
            EXPECT_EQ(summary.records, doc.grid.points());
            EXPECT_EQ(summary.feasible + summary.infeasible,
                      summary.records);
        }
    }
}

TEST(ShardMerge, SummarizesFeasibilityAndTopK)
{
    const fs::path dir = scratchDir("merge_summary");
    writeFile(dir / "a.jsonl",
              "{\"index\": 0, \"design\": \"a\", \"feasible\": true, "
              "\"totalEnergy\": 3.0, \"categories\": {\"SEN\": 2.0, "
              "\"MEM-D\": 1.0}}\n"
              "{\"index\": 1, \"design\": \"b\", \"feasible\": false, "
              "\"error\": \"stall\"}\n");
    writeFile(dir / "b.jsonl",
              "{\"index\": 2, \"design\": \"c\", \"feasible\": true, "
              "\"totalEnergy\": 1.0, \"categories\": {\"SEN\": 1.0}}\n");
    std::ostringstream out;
    const MergeSummary s = mergeShardFiles(
        {(dir / "a.jsonl").string(), (dir / "b.jsonl").string()}, out,
        1);
    EXPECT_EQ(s.records, 3u);
    EXPECT_EQ(s.feasible, 2u);
    EXPECT_EQ(s.infeasible, 1u);
    EXPECT_DOUBLE_EQ(s.totalEnergy, 4.0);
    EXPECT_DOUBLE_EQ(s.categoryTotals.at("SEN"), 3.0);
    EXPECT_DOUBLE_EQ(s.categoryTotals.at("MEM-D"), 1.0);
    ASSERT_EQ(s.topK.size(), 1u); // capped at --top 1
    EXPECT_EQ(s.topK[0].design, "c"); // the cheaper feasible point
    const std::string pretty = formatMergeSummary(s);
    EXPECT_NE(pretty.find("2 feasible"), std::string::npos);
    EXPECT_NE(pretty.find("top-1"), std::string::npos);
}

TEST(ShardMerge, FailsLoudlyOnGap)
{
    const fs::path dir = scratchDir("merge_gap");
    writeFile(dir / "a.jsonl", "{\"index\": 0}\n");
    writeFile(dir / "b.jsonl", "{\"index\": 2}\n");
    std::ostringstream out;
    try {
        mergeShardFiles({(dir / "a.jsonl").string(),
                         (dir / "b.jsonl").string()}, out);
        FAIL() << "gap not detected";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("missing index 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardMerge, FailsLoudlyOnDuplicateAcrossShards)
{
    const fs::path dir = scratchDir("merge_dup");
    writeFile(dir / "a.jsonl", "{\"index\": 0}\n{\"index\": 1}\n");
    writeFile(dir / "b.jsonl", "{\"index\": 1}\n{\"index\": 2}\n");
    std::ostringstream out;
    try {
        mergeShardFiles({(dir / "a.jsonl").string(),
                         (dir / "b.jsonl").string()}, out);
        FAIL() << "overlap not detected";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate index 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardMerge, FailsLoudlyOnUnsortedShardFile)
{
    const fs::path dir = scratchDir("merge_unsorted");
    writeFile(dir / "a.jsonl",
              "{\"index\": 0}\n{\"index\": 0}\n{\"index\": 1}\n");
    std::ostringstream out;
    EXPECT_THROW(mergeShardFiles({(dir / "a.jsonl").string()}, out),
                 ConfigError);
}

TEST(ShardMerge, FailsLoudlyOnShortOrOverfullTotal)
{
    const fs::path dir = scratchDir("merge_total");
    writeFile(dir / "a.jsonl", "{\"index\": 0}\n{\"index\": 1}\n");
    std::ostringstream out;
    // Contiguity holds, but the plan expected one more point — only
    // --total can catch a missing TAIL shard.
    EXPECT_THROW(
        mergeShardFiles({(dir / "a.jsonl").string()}, out, 5, 3),
        ConfigError);
    std::ostringstream out2;
    EXPECT_THROW(
        mergeShardFiles({(dir / "a.jsonl").string()}, out2, 5, 1),
        ConfigError);
    std::ostringstream out3;
    EXPECT_EQ(mergeShardFiles({(dir / "a.jsonl").string()}, out3, 5, 2)
                  .records,
              2u);
}

TEST(ShardMerge, CrlfShardFilesMergeByteIdentical)
{
    // Shard files written on (or round-tripped through) a CRLF
    // platform merge to the same LF-terminated bytes: JsonlReader
    // strips the \r before the raw line is stored.
    const fs::path dir = scratchDir("merge_crlf");
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);
    const spec::ShardPlan plan = spec::planShards(doc.grid.points(), 2);
    std::vector<std::string> paths;
    for (const spec::ShardAssignment &a : plan.shards) {
        std::string body = shardJsonl(doc, a);
        std::string crlf;
        for (char c : body) {
            if (c == '\n')
                crlf += '\r';
            crlf += c;
        }
        fs::path p = dir / strprintf("s%zu.jsonl", a.shardIndex);
        writeFile(p, crlf);
        paths.push_back(p.string());
    }
    std::ostringstream merged;
    mergeShardFiles(paths, merged, 5, doc.grid.points());
    EXPECT_EQ(merged.str(), reference);
}

TEST(ShardMerge, MissingTrailingNewlineOnFinalRecordIsTolerated)
{
    const fs::path dir = scratchDir("merge_no_final_lf");
    const spec::SweepDocument doc = smallStudy();
    std::string body = shardJsonl(doc, spec::planShards(
        doc.grid.points(), 1).shards[0]);
    ASSERT_EQ(body.back(), '\n');
    body.pop_back();
    writeFile(dir / "s0.jsonl", body);
    std::ostringstream merged;
    const MergeSummary s = mergeShardFiles(
        {(dir / "s0.jsonl").string()}, merged, 5, doc.grid.points());
    EXPECT_EQ(s.records, doc.grid.points());
    EXPECT_EQ(merged.str(), singleProcessJsonl(doc));
}

TEST(ShardMerge, TornFinalLineStillFailsLoudly)
{
    // Tolerating a missing newline must NOT quietly accept a line a
    // dying worker wrote half of.
    const fs::path dir = scratchDir("merge_torn");
    writeFile(dir / "s0.jsonl",
              "{\"index\": 0}\n{\"index\": 1, \"feasib");
    std::ostringstream out;
    EXPECT_THROW(
        mergeShardFiles({(dir / "s0.jsonl").string()}, out),
        ConfigError);
}

TEST(ShardMerge, NamesFileAndLineOnMalformedInput)
{
    // The reader wraps the line's error once: "fatal:" appears once.
    auto fatalPrefixes = [](const std::string &what) {
        size_t n = 0;
        for (size_t at = what.find("fatal:"); at != std::string::npos;
             at = what.find("fatal:", at + 1))
            ++n;
        return n;
    };
    const fs::path dir = scratchDir("merge_malformed");
    writeFile(dir / "bad.jsonl", "{\"index\": 0}\nnot json\n");
    JsonlReader reader((dir / "bad.jsonl").string());
    EXPECT_TRUE(reader.next().has_value());
    try {
        reader.next();
        FAIL() << "malformed line not detected";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("bad.jsonl:2"),
                  std::string::npos)
            << e.what();
        // The parser's rule, not the uncoded CAMJ-D003.
        EXPECT_STREQ(e.code(), "CAMJ-E018") << e.what();
        EXPECT_EQ(fatalPrefixes(e.what()), 1u) << e.what();
    }

    // A negative index is refused under the same rule; it used to be
    // the uncoded CAMJ-D003, its text reading "fatal:" twice.
    writeFile(dir / "neg.jsonl",
              "{\"index\":-1,\"design\":\"a\",\"feasible\":false}\n");
    JsonlReader negative((dir / "neg.jsonl").string());
    try {
        negative.next();
        FAIL() << "negative index not detected";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "fatal: jsonl: " + (dir / "neg.jsonl").string() +
                      ":1: jsonl: negative index -1");
        EXPECT_STREQ(e.code(), "CAMJ-E018") << e.what();
        EXPECT_EQ(fatalPrefixes(e.what()), 1u) << e.what();
    }

    // An index that is not an integer is refused, not rounded: 0.6
    // used to merge as index 1 and re-emit its raw "index":0.6 bytes.
    const std::string fractional =
        "{\"index\":0,\"design\":\"a\",\"feasible\":false}\n"
        "{\"index\":0.6,\"design\":\"b\",\"feasible\":false}\n";
    writeFile(dir / "fractional.jsonl", fractional);
    JsonlReader frac((dir / "fractional.jsonl").string());
    EXPECT_TRUE(frac.next().has_value());
    try {
        frac.next();
        FAIL() << "fractional index not detected";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fractional.jsonl:2"), std::string::npos)
            << what;
        EXPECT_NE(what.find("index 0.6 is not an integer"),
                  std::string::npos)
            << what;
        EXPECT_STREQ(e.code(), "CAMJ-E018") << what;
        EXPECT_EQ(fatalPrefixes(what), 1u) << what;
    }
    std::ostringstream merged;
    EXPECT_THROW(mergeShardFiles({(dir / "fractional.jsonl").string()},
                                 merged, 5, 2),
                 ConfigError);
    EXPECT_THROW(parseJsonlLine("{\"index\":1.5}"), ConfigError);
    EXPECT_EQ(parseJsonlLine("{\"index\":1e0}").index, 1u);
}

// -------------------------------------------------- explicit + resume

TEST(ExplicitShard, CoversExactlyTheListedIndices)
{
    const spec::ShardAssignment a =
        spec::explicitShard(12, {1, 4, 5, 11});
    EXPECT_EQ(a.mode, spec::ShardMode::Explicit);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.globalIndex(0), 1u);
    EXPECT_EQ(a.globalIndex(3), 11u);
    EXPECT_THROW(a.globalIndex(4), ConfigError);

    // Strictly ascending, in range, and only in explicit mode.
    EXPECT_THROW(spec::explicitShard(12, {4, 4}), ConfigError);
    EXPECT_THROW(spec::explicitShard(12, {5, 4}), ConfigError);
    EXPECT_THROW(spec::explicitShard(12, {12}), ConfigError);
    EXPECT_THROW(
        spec::planShards(12, 2, spec::ShardMode::Explicit),
        ConfigError);
    spec::ShardAssignment contiguous_with_list =
        spec::planShards(12, 2).shards[0];
    contiguous_with_list.indices = {0};
    EXPECT_THROW(contiguous_with_list.validate(), ConfigError);
}

TEST(ExplicitShard, DescriptorRoundTripsAndYieldsItsSlice)
{
    const spec::SweepDocument doc = smallStudy();
    spec::ShardDescriptor d{
        doc, spec::explicitShard(doc.grid.points(), {2, 3, 7})};
    const std::string text = spec::shardDescriptorToJson(d);
    EXPECT_NE(text.find("\"indices\""), std::string::npos);
    spec::ShardDescriptor back = spec::shardDescriptorFromJson(text);
    EXPECT_EQ(spec::shardDescriptorToJson(back), text);
    ASSERT_EQ(back.shard.indices,
              (std::vector<size_t>{2, 3, 7}));

    // Its JSONL is exactly the matching lines of the whole run.
    const std::string whole = singleProcessJsonl(doc);
    std::vector<std::string> lines;
    std::istringstream in(whole);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    const std::string slice = shardJsonl(doc, back.shard);
    EXPECT_EQ(slice,
              lines[2] + "\n" + lines[3] + "\n" + lines[7] + "\n");
}

// ------------------------------------------------------------- runShard

/** runShard's bytes for @p assignment of @p source on @p threads. */
std::string
runShardBytes(const spec::SpecSource &source,
              const spec::ShardAssignment &assignment, int threads)
{
    std::ostringstream out;
    JsonlSink lines(out);
    runShard(source, assignment, threads, {}, lines);
    return out.str();
}

TEST(RunShard, MatchesTheReferenceChainByteForByte)
{
    // The canonical 108-point grid: 3 contiguous shards, 4 strided
    // ones, and the explicit shard `merge --resume-plan` writes for a
    // lost contiguous shard 1 of 3 plus a stray point.
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    const spec::GridSpecSource grid = doc.source();
    const size_t total = grid.totalPoints();
    ASSERT_EQ(total, 108u);
    std::vector<spec::ShardAssignment> shards =
        spec::planShards(total, 3).shards;
    for (const spec::ShardAssignment &a :
         spec::planShards(total, 4, spec::ShardMode::Strided).shards)
        shards.push_back(a);
    std::vector<size_t> hole;
    for (size_t i = shards[1].begin; i < shards[1].end; ++i)
        hole.push_back(i);
    hole.push_back(total - 1);
    shards.push_back(spec::explicitShard(total, hole));

    for (const spec::ShardAssignment &a : shards) {
        const std::string reference = shardJsonl(doc, a);
        ASSERT_FALSE(reference.empty());
        for (int threads : {1, 4}) {
            EXPECT_EQ(runShardBytes(grid, a, threads), reference)
                << spec::shardModeName(a.mode) << " shard "
                << a.shardIndex << "/" << a.shardCount << ", "
                << threads << " thread(s)";
        }
    }
}

TEST(RunShard, StopsWhenTheSinkRefusesOrTheTokenFires)
{
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    const spec::GridSpecSource grid = doc.source();
    const spec::ShardAssignment shard = spec::planShards(
        grid.totalPoints(), 2, spec::ShardMode::Strided).shards[1];
    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        // The fifth result is refused: the sink saw exactly five, in
        // ascending global order.
        std::vector<size_t> seen;
        CallbackSink refuse_fifth([&](SweepResult r) {
            seen.push_back(r.index);
            return seen.size() < 5;
        });
        StreamStats stats =
            runShard(grid, shard, threads, {}, refuse_fifth);
        EXPECT_TRUE(stats.cancelled);
        ASSERT_EQ(seen.size(), 5u);
        for (size_t local = 0; local < seen.size(); ++local)
            EXPECT_EQ(seen[local], shard.globalIndex(local));

        // A token fired after the third result stops the workers.
        CancelToken token;
        size_t accepted = 0;
        CallbackSink fire_at_third([&](SweepResult) {
            if (++accepted == 3)
                token.cancel();
            return true;
        });
        stats = runShard(grid, shard, threads, {}, fire_at_third,
                         &token);
        EXPECT_TRUE(stats.cancelled);
        EXPECT_GE(accepted, 3u);
        EXPECT_LT(accepted, shard.count());
    }
}

TEST(ShardMerge, MissingIndicesScanToleratesGapsAndDuplicates)
{
    const fs::path dir = scratchDir("gap_scan");
    const spec::SweepDocument doc = smallStudy();
    const size_t total = doc.grid.points();
    const spec::ShardPlan plan = spec::planShards(total, 3);

    // Shard 1 lost; shard 0 written twice (a retried worker).
    writeFile(dir / "s0.jsonl", shardJsonl(doc, plan.shards[0]));
    writeFile(dir / "s0b.jsonl", shardJsonl(doc, plan.shards[0]));
    writeFile(dir / "s2.jsonl", shardJsonl(doc, plan.shards[2]));

    const std::vector<size_t> missing = missingShardIndices(
        {(dir / "s0.jsonl").string(), (dir / "s0b.jsonl").string(),
         (dir / "s2.jsonl").string()},
        total);
    std::vector<size_t> expected;
    for (size_t i = plan.shards[1].begin; i < plan.shards[1].end; ++i)
        expected.push_back(i);
    EXPECT_EQ(missing, expected);

    // Complete coverage scans clean.
    writeFile(dir / "s1.jsonl", shardJsonl(doc, plan.shards[1]));
    EXPECT_TRUE(missingShardIndices(
                    {(dir / "s0.jsonl").string(),
                     (dir / "s1.jsonl").string(),
                     (dir / "s2.jsonl").string()},
                    total)
                    .empty());

    // Indices beyond the plan mean the inputs belong elsewhere.
    EXPECT_THROW(
        missingShardIndices({(dir / "s2.jsonl").string()}, 2),
        ConfigError);
}

// ------------------------------------------------------------------- CLI

#ifdef CAMJ_SWEEP_BIN

int
runCli(const std::string &args)
{
    const std::string cmd =
        std::string(CAMJ_SWEEP_BIN) + " " + args + " > /dev/null";
    return std::system(cmd.c_str());
}

/** The acceptance bar: plan N + N x run + merge through the CLI is
 *  byte-identical (ordering and values) to one in-order process. */
TEST(CamjSweepCli, PlanRunMergeRoundTripMatchesSingleProcess)
{
    const fs::path dir = scratchDir("cli_roundtrip");
    const spec::SweepDocument doc = smallStudy();
    writeFile(dir / "study.json", spec::toJson(doc));

    ASSERT_EQ(runCli("plan " + (dir / "study.json").string() +
                     " --shards 3 --outdir " + dir.string() +
                     " --prefix study"),
              0);
    std::string merge_args = "merge";
    for (int k = 0; k < 3; ++k) {
        const std::string shard =
            (dir / strprintf("study-shard-%d-of-3.json", k)).string();
        ASSERT_TRUE(fs::exists(shard)) << shard;
        const std::string out =
            (dir / strprintf("s%d.jsonl", k)).string();
        ASSERT_EQ(runCli("run " + shard + " --out " + out), 0);
        merge_args += " " + out;
    }
    merge_args += " --out " + (dir / "merged.jsonl").string() +
                  strprintf(" --total %zu", doc.grid.points());
    ASSERT_EQ(runCli(merge_args), 0);

    EXPECT_EQ(readFile(dir / "merged.jsonl"),
              singleProcessJsonl(doc));
}

TEST(CamjSweepCli, InlineShardFlagMatchesPlannedDescriptors)
{
    const fs::path dir = scratchDir("cli_inline");
    const spec::SweepDocument doc = smallStudy();
    writeFile(dir / "study.json", spec::toJson(doc));
    std::string merge_args = "merge";
    for (int k = 0; k < 2; ++k) {
        const std::string out =
            (dir / strprintf("s%d.jsonl", k)).string();
        ASSERT_EQ(runCli("run " + (dir / "study.json").string() +
                         strprintf(" --shard %d/2 --mode strided", k) +
                         " --out " + out),
                  0);
        merge_args += " " + out;
    }
    merge_args += " --out " + (dir / "merged.jsonl").string();
    ASSERT_EQ(runCli(merge_args), 0);
    EXPECT_EQ(readFile(dir / "merged.jsonl"),
              singleProcessJsonl(doc));
}

TEST(CamjSweepCli, MergeExitsNonZeroOnMissingShard)
{
    const fs::path dir = scratchDir("cli_missing");
    const spec::SweepDocument doc = smallStudy();
    writeFile(dir / "study.json", spec::toJson(doc));
    ASSERT_EQ(runCli("run " + (dir / "study.json").string() +
                     " --shard 0/2 --out " +
                     (dir / "s0.jsonl").string()),
              0);
    // Shard 1 never ran: the merge must fail, not silently emit a
    // truncated result file.
    const std::string cmd =
        std::string(CAMJ_SWEEP_BIN) + " merge " +
        (dir / "s0.jsonl").string() + " --out " +
        (dir / "merged.jsonl").string() +
        strprintf(" --total %zu", doc.grid.points()) +
        " > /dev/null 2>&1";
    EXPECT_NE(std::system(cmd.c_str()), 0);
}

TEST(CamjSweepCli, ResumePlanCoversExactlyTheHoleAndMergeCompletes)
{
    const fs::path dir = scratchDir("cli_resume");
    const spec::SweepDocument doc = smallStudy();
    writeFile(dir / "study.json", spec::toJson(doc));

    // Run shards 0 and 2 of 3; shard 1 is the hole.
    for (int k : {0, 2}) {
        ASSERT_EQ(runCli("run " + (dir / "study.json").string() +
                         strprintf(" --shard %d/3", k) + " --out " +
                         (dir / strprintf("s%d.jsonl", k)).string()),
                  0);
    }

    // Merge with --resume-plan: exit 3 and an explicit-index
    // descriptor covering exactly the missing global indices.
    const std::string base_merge =
        "merge " + (dir / "s0.jsonl").string() + " " +
        (dir / "s2.jsonl").string() + " --out " +
        (dir / "merged.jsonl").string() + " --resume-plan " +
        (dir / "resume.json").string() + " --doc " +
        (dir / "study.json").string();
    const int status = runCli(base_merge);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 3);
    const spec::ShardDescriptor resume =
        spec::shardDescriptorFromJson(readFile(dir / "resume.json"));
    EXPECT_EQ(resume.shard.mode, spec::ShardMode::Explicit);
    const spec::ShardAssignment hole =
        spec::planShards(doc.grid.points(), 3).shards[1];
    std::vector<size_t> expected;
    for (size_t i = hole.begin; i < hole.end; ++i)
        expected.push_back(i);
    EXPECT_EQ(resume.shard.indices, expected);

    // Re-run ONLY the hole, then the same merge succeeds and the
    // result is byte-identical to a single-process run.
    ASSERT_EQ(runCli("run " + (dir / "resume.json").string() +
                     " --out " + (dir / "hole.jsonl").string()),
              0);
    ASSERT_EQ(runCli(base_merge + " " +
                     (dir / "hole.jsonl").string()),
              0);
    EXPECT_EQ(readFile(dir / "merged.jsonl"),
              singleProcessJsonl(doc));
}

TEST(CamjSweepCli, RunMatchesSingleProcess)
{
    // `run` evaluates through the per-worker cycle-sim memo; its
    // bytes must equal a plain in-process run.
    const fs::path dir = scratchDir("cli_run");
    const spec::SweepDocument doc = smallStudy();
    writeFile(dir / "study.json", spec::toJson(doc));
    ASSERT_EQ(runCli("run " + (dir / "study.json").string() +
                     " --out " + (dir / "memo.jsonl").string()),
              0);
    EXPECT_EQ(readFile(dir / "memo.jsonl"), singleProcessJsonl(doc));
}

/** WEXITSTATUS of the CLI with stdout+stderr written to @p log
 *  (silenced by default); -1 on an abnormal exit. */
int
cliExit(const std::string &args, const std::string &log = "/dev/null")
{
    const std::string cmd = std::string(CAMJ_SWEEP_BIN) + " " + args +
                            " > " + log + " 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Argument errors are exit 2 (usage), everywhere — including the
 *  historical exception `run --shard k/N` with k >= N, which used to
 *  exit 1 through the generic fatal path. */
TEST(CamjSweepCli, ArgumentErrorsExitTwoWithUsage)
{
    const fs::path dir = scratchDir("cli_argv");
    writeFile(dir / "study.json", spec::toJson(smallStudy()));
    const std::string study = (dir / "study.json").string();

    EXPECT_EQ(cliExit("--help"), 0);
    EXPECT_EQ(cliExit(""), 2);
    EXPECT_EQ(cliExit("frobnicate"), 2);
    EXPECT_EQ(cliExit("run " + study + " --frobnicate"), 2);
    // `run` has one evaluation path, so there is nothing to opt out of.
    EXPECT_EQ(cliExit("run " + study + " --full-rebuild --out " +
                      (dir / "out.jsonl").string()),
              2);
    EXPECT_EQ(cliExit("run " + study + " --out"), 2); // missing value
    EXPECT_EQ(cliExit("run " + study + " --shard 5/2"), 2);
    EXPECT_EQ(cliExit("run " + study + " --shard 0/0"), 2);
    EXPECT_EQ(cliExit("run " + study + " --shard nonsense"), 2);
}

TEST(CamjSweepCli, OutOfRangeCountsAreUsageErrors)
{
    // Each count is checked against the int it is read into, before
    // the document is read or the --out file opened. 4294967297 used
    // to run as 1 and 2147483648 to fail as -2147483648; --frames 0
    // failed in the evaluator (exit 1) after creating an empty --out
    // file.
    const fs::path dir = scratchDir("cli_counts");
    writeFile(dir / "study.json", spec::toJson(smallStudy()));
    const fs::path out = dir / "out.jsonl";
    for (const std::string flag :
         {"--frames 4294967297", "--frames 2147483648", "--frames 0",
          "--threads 4294967297"}) {
        SCOPED_TRACE(flag);
        const fs::path log = dir / "run.log";
        EXPECT_EQ(cliExit("run " + (dir / "study.json").string() + " " +
                              flag + " --out " + out.string(),
                          log.string()),
                  2);
        const std::string name = flag.substr(0, flag.find(' '));
        EXPECT_NE(readFile(log).find("error: " + name + " wants an "
                                     "integer in ["),
                  std::string::npos)
            << readFile(log);
        EXPECT_FALSE(fs::exists(out));
    }
}

TEST(CamjSweepCli, CacheDirFlagIsRejected)
{
    // `run` keeps no outcomes between processes: a script still
    // passing the flag fails with usage instead of running without it.
    const fs::path dir = scratchDir("cli_cache_dir");
    writeFile(dir / "study.json", spec::toJson(smallStudy()));
    const fs::path log = dir / "run.log";
    const fs::path out = dir / "out.jsonl";
    EXPECT_EQ(cliExit("run " + (dir / "study.json").string() +
                          " --cache-dir " + (dir / "cache").string() +
                          " --out " + out.string(),
                      log.string()),
              2);
    EXPECT_NE(readFile(log).find("unexpected argument '--cache-dir'"),
              std::string::npos)
        << readFile(log);
    EXPECT_FALSE(fs::exists(out));
}

TEST(CamjSweepCli, LintSubcommandReportsFindings)
{
    const fs::path dir = scratchDir("cli_lint");
    spec::SweepDocument doc = smallStudy();
    writeFile(dir / "clean.json", spec::toJson(doc));
    EXPECT_EQ(cliExit("lint " + (dir / "clean.json").string()), 0);

    doc.base.mapping.pop_back(); // Classify unmapped: CAMJ-E008
    writeFile(dir / "broken.json", spec::toJson(doc));
    EXPECT_EQ(cliExit("lint " + (dir / "broken.json").string()), 1);
    EXPECT_EQ(cliExit("lint"), 2);

    // Several documents: one broken file fails the whole call.
    EXPECT_EQ(cliExit("lint " + (dir / "clean.json").string() + " " +
                      (dir / "broken.json").string()),
              1);

    // A grid path that does not parse, and a truncated document: one
    // CAMJ-E018 diagnostic each, then the per-file summary.
    spec::SweepDocument bad_grid = smallStudy();
    bad_grid.grid.axes[0].path = "fpz[";
    writeFile(dir / "grid.json", spec::toJson(bad_grid));
    const std::string text = spec::toJson(smallStudy());
    writeFile(dir / "truncated.json", text.substr(0, text.size() / 2));
    for (const std::string name : {"grid.json", "truncated.json"}) {
        const fs::path log = dir / (name + ".log");
        EXPECT_EQ(cliExit("lint " + (dir / name).string(), log.string()),
                  1)
            << name;
        const std::string report = readFile(log);
        EXPECT_NE(report.find("error CAMJ-E018"), std::string::npos)
            << report;
        EXPECT_NE(report.find(": 1 error(s), 0 warning(s)"),
                  std::string::npos)
            << report;
    }
}

TEST(CamjSweepCli, RunPreflightAbortsOnBrokenBaseUnlessDisabled)
{
    const fs::path dir = scratchDir("cli_preflight");
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.base.mapping.pop_back(); // statically detectable: CAMJ-E008
    writeFile(dir / "broken.json", spec::toJson(doc));
    const std::string out = (dir / "out.jsonl").string();

    // On by default: the run refuses before simulating anything.
    EXPECT_EQ(cliExit("run " + (dir / "broken.json").string() +
                      " --out " + out),
              1);
    EXPECT_FALSE(fs::exists(out));

    // --no-lint forces the run; the point then fails dynamically and
    // its error line carries the same rule code the linter printed.
    EXPECT_EQ(cliExit("run " + (dir / "broken.json").string() +
                      " --no-lint --out " + out),
              0);
    JsonlReader reader(out);
    const std::optional<JsonlRecord> record = reader.next();
    ASSERT_TRUE(record.has_value());
    EXPECT_FALSE(record->feasible);
    EXPECT_EQ(record->ruleCode, "CAMJ-E008") << record->error;
}

/** The lines `camj_sweep lint` prints for @p path, less its per-file
 *  count line: the diagnostics. */
std::vector<std::string>
lintDiagnosticLines(const fs::path &path, const fs::path &log)
{
    EXPECT_EQ(cliExit("lint " + path.string(), log.string()), 1) << path;
    std::vector<std::string> lines;
    std::istringstream in(readFile(log));
    for (std::string line; std::getline(in, line);) {
        if (line.find(" error(s), ") == std::string::npos)
            lines.push_back(line);
    }
    return lines;
}

TEST(CamjSweepCli, RunRejectsWhatLintRejects)
{
    // `run` lints the whole document through lintDocument, as `lint`
    // does: each document below fails with lint's own lines, before
    // the output file is opened. The last two hold integers outside
    // int64, which used to run as INT64_MIN (analysis_test pins their
    // one E018 naming the number).
    const fs::path dir = scratchDir("cli_run_lint");
    const std::string text = spec::toJson(smallStudy());
    writeFile(dir / "truncated.json", text.substr(0, text.size() / 2));
    json::Value unlowered = json::Value::parse(text);
    unlowered.set("fps", json::Value(std::string("fast")));
    writeFile(dir / "unlowered.json", unlowered.dump(2));
    spec::SweepDocument dangling = smallStudy();
    dangling.base.mapping.back().second = "Classifer";
    writeFile(dir / "dangling.json", spec::toJson(dangling));
    spec::SweepDocument bad_axis = smallStudy();
    bad_axis.grid.axes[0].values[2] = json::Value(std::string("fast"));
    writeFile(dir / "axis.json", spec::toJson(bad_axis));
    json::Value capacity = json::Value::parse(text);
    for (json::Value &m : capacity.find("memories")->mutableArray()) {
        if (m.getString("name", "") == "ActBuf")
            m.set("capacityWords", json::Value(1e19));
    }
    writeFile(dir / "capacity.json", capacity.dump(2));
    json::Value version = json::Value::parse(text);
    version.set("camjSpecVersion", json::Value(1e308));
    writeFile(dir / "version.json", version.dump(2));

    for (const std::string name :
         {"truncated.json", "unlowered.json", "dangling.json",
          "axis.json", "capacity.json", "version.json"}) {
        SCOPED_TRACE(name);
        const std::vector<std::string> expected =
            lintDiagnosticLines(dir / name, dir / (name + ".lint"));
        ASSERT_FALSE(expected.empty());
        const fs::path out = dir / (name + ".jsonl");
        const fs::path log = dir / (name + ".run");
        EXPECT_EQ(cliExit("run " + (dir / name).string() + " --out " +
                              out.string(),
                          log.string()),
                  1);
        EXPECT_FALSE(fs::exists(out));
        const std::string report = readFile(log);
        for (const std::string &line : expected)
            EXPECT_NE(report.find(line + "\n"), std::string::npos)
                << line << "\n--- run printed:\n" << report;
        EXPECT_NE(report.find("error: run: "), std::string::npos)
            << report;
    }
}

TEST(CamjSweepCli, VerboseTotalCountsInfeasiblePoints)
{
    // The canonical sweep with ActBuf cut to 40 words: pass A
    // simulates every point and 24 of them deadlock (CAMJ-D001). The
    // total is the sum of the passes, infeasible points included.
    const fs::path dir = scratchDir("cli_verbose");
    spec::SweepDocument doc = spec::sampleDetectorStudy();
    for (spec::MemorySpec &m : doc.base.memories) {
        if (m.name == "ActBuf")
            m.capacityWords = 40;
    }
    writeFile(dir / "study.json", spec::toJson(doc));
    const fs::path log = dir / "run.log";
    const fs::path out = dir / "out.jsonl";
    ASSERT_EQ(cliExit("run " + (dir / "study.json").string() +
                          " --threads 1 --verbose --out " + out.string(),
                      log.string()),
              0);
    size_t deadlocks = 0;
    JsonlReader reader(out.string());
    while (const std::optional<JsonlRecord> record = reader.next())
        deadlocks += record->ruleCode == "CAMJ-D001" ? 1 : 0;
    EXPECT_EQ(deadlocks, 24u);
    const std::string report = readFile(log);
    EXPECT_NE(report.find("cycle-sim: 151102 cycle(s) ticked (pass A "
                          "50358, pass B 100744)\n"),
              std::string::npos)
        << report;
    EXPECT_EQ(report.find("fast-forward"), std::string::npos) << report;
}

TEST(CamjSweepCli, OutOfRangeNumberIsAParseError)
{
    // A number beyond double range is not read as inf (as a grid
    // value it would name points "rate=inf"): the document itself is
    // rejected with the parse error's position, before anything
    // runs.
    const fs::path dir = scratchDir("cli_overflow");
    std::string text = spec::toJson(smallStudy());
    const size_t fps = text.find("\"fps\": 30");
    ASSERT_NE(fps, std::string::npos);
    text.replace(fps, 9, "\"fps\": 1e400");
    writeFile(dir / "base.json", text);
    std::string grid = spec::toJson(smallStudy());
    const size_t value = grid.find("120", grid.find("sweepGrid"));
    ASSERT_NE(value, std::string::npos);
    grid.replace(value, 3, "1e400");
    writeFile(dir / "grid.json", grid);

    for (const std::string name : {"base.json", "grid.json"}) {
        const fs::path log = dir / (name + ".log");
        const fs::path out = dir / (name + ".jsonl");
        EXPECT_EQ(cliExit("run " + (dir / name).string() +
                              " --no-lint --out " + out.string(),
                          log.string()),
                  1)
            << name;
        const std::string report = readFile(log);
        EXPECT_NE(report.find("json parse error at line"),
                  std::string::npos)
            << report;
        EXPECT_NE(report.find("number '1e400' is out of range"),
                  std::string::npos)
            << report;
        EXPECT_EQ(report.find("internal error"), std::string::npos)
            << report;
        EXPECT_FALSE(fs::exists(out)) << name;

        const fs::path lint_log = dir / (name + ".lint.log");
        EXPECT_EQ(cliExit("lint " + (dir / name).string(),
                          lint_log.string()),
                  1);
        EXPECT_NE(readFile(lint_log).find("error CAMJ-E018"),
                  std::string::npos);
    }
}

#endif // CAMJ_SWEEP_BIN

} // namespace
} // namespace camj

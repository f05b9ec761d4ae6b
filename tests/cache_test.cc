/**
 * @file
 * Tests for the reuse layers under a sweep worker: the cycle-sim memo
 * under strided sweep orders and infeasible bands, the evaluator's
 * stage accounting, and the content-addressed on-disk outcome store
 * of explore/cache.h (cross-instance round-trips, corruption
 * fallback, strict-mode rethrow, a directory shared by a sweep). The
 * bar everywhere is the same as tests/incremental_test.cc:
 * bit-identical outcomes — energies, verdicts, and error text —
 * versus a from-scratch Simulator run.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "digital/cyclesim.h"
#include "explore/cache.h"
#include "explore/incremental.h"
#include "explore/sink.h"
#include "explore/sweep.h"
#include "spec/grid.h"
#include "spec/samples.h"
#include "usecases/edgaze.h"

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

SimulationOptions
reportOptions()
{
    SimulationOptions opts;
    opts.checkMode = CheckMode::Report;
    return opts;
}

SimulationOutcome
referenceOutcome(const spec::DesignSpec &spec,
                 const SimulationOptions &options = reportOptions())
{
    SimulationOptions opts = options;
    opts.checkMode = CheckMode::Report;
    return Simulator(opts).run(spec);
}

/** Bit-identical outcome comparison (the incremental_test bar). */
void
expectIdenticalOutcome(const SimulationOutcome &inc,
                       const SimulationOutcome &ref,
                       const std::string &what)
{
    ASSERT_EQ(inc.feasible, ref.feasible) << what;
    EXPECT_EQ(inc.error, ref.error) << what;
    EXPECT_EQ(inc.frames, ref.frames) << what;
    EXPECT_EQ(inc.snrPenaltyDb, ref.snrPenaltyDb) << what;
    if (!ref.feasible)
        return;
    const EnergyReport &a = inc.report;
    const EnergyReport &b = ref.report;
    EXPECT_EQ(a.designName, b.designName) << what;
    EXPECT_EQ(a.fps, b.fps) << what;
    EXPECT_EQ(a.frameTime, b.frameTime) << what;
    EXPECT_EQ(a.digitalLatency, b.digitalLatency) << what;
    EXPECT_EQ(a.analogUnitTime, b.analogUnitTime) << what;
    EXPECT_EQ(a.numAnalogSlots, b.numAnalogSlots) << what;
    EXPECT_EQ(a.mipiBytes, b.mipiBytes) << what;
    EXPECT_EQ(a.tsvBytes, b.tsvBytes) << what;
    EXPECT_EQ(a.sensorLayerArea, b.sensorLayerArea) << what;
    EXPECT_EQ(a.computeLayerArea, b.computeLayerArea) << what;
    EXPECT_EQ(a.footprint, b.footprint) << what;
    ASSERT_EQ(a.units.size(), b.units.size()) << what;
    for (size_t u = 0; u < a.units.size(); ++u) {
        EXPECT_EQ(a.units[u].name, b.units[u].name) << what;
        EXPECT_EQ(a.units[u].category, b.units[u].category) << what;
        EXPECT_EQ(a.units[u].layer, b.units[u].layer) << what;
        EXPECT_EQ(a.units[u].energy, b.units[u].energy)
            << what << "/" << a.units[u].name;
    }
    EXPECT_EQ(a.pretty(), b.pretty()) << what;
    EXPECT_EQ(a.csv(), b.csv()) << what;
}

/** A fresh, unique cache directory under the test temp dir, removed
 *  on destruction. */
class ScopedCacheDir
{
  public:
    explicit ScopedCacheDir(const std::string &tag)
        : path_((fs::path(::testing::TempDir()) /
                 ("camj-cache-" + tag + "-" +
                  std::to_string(::getpid())))
                    .string())
    {
        fs::remove_all(path_);
    }
    ~ScopedCacheDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// -------------------------------------------------------- cache keys

TEST(CacheKeys, OutcomeKeyCoversTheWholeDocument)
{
    spec::DesignSpec a = spec::sampleDetectorSpec(30.0, 65);
    spec::DesignSpec b = spec::sampleDetectorSpec(120.0, 65);
    // fps changes the outcome, so it must change the content address.
    EXPECT_NE(outcomeCacheKey(spec::toJsonValue(a)),
              outcomeCacheKey(spec::toJsonValue(b)));
    EXPECT_EQ(outcomeCacheKey(spec::toJsonValue(a)),
              outcomeCacheKey(spec::toJsonValue(a)));
}

// ------------------------------------------------- the cycle-sim memo

TEST(CycleSimMemoReuse, StridedShardOrderSimulatesEachTopologyOnce)
{
    // A stride-12 shard order over the canonical 108-point study:
    // consecutive points differ in the rate axis. Pass A's topology
    // ignores the rate and is simulated once; every pass-B stall check
    // is answered without simulating (ActBuf holds the whole frame),
    // so the memo holds one entry, and every outcome is bit-identical
    // to a full rebuild.
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    spec::GridSpecSource source = doc.source();
    const size_t total = source.totalPoints();
    ASSERT_EQ(total, 108u);
    const size_t stride = 12; // 4 nodes x 3 duty cycles

    IncrementalEvaluator inc(reportOptions());
    size_t visited = 0;
    for (size_t k = 0; k < stride; ++k) {
        for (size_t idx = k; idx < total; idx += stride, ++visited) {
            const spec::DesignSpec spec = source.at(idx);
            expectIdenticalOutcome(inc.evaluate(spec),
                                   referenceOutcome(spec), spec.name);
            EXPECT_LE(inc.memo().size(), CycleSimMemo::kCapacity);
        }
    }

    ASSERT_EQ(visited, total);
    EXPECT_EQ(inc.stats().points, total);
    EXPECT_EQ(inc.memo().stats().misses, 1u);
    EXPECT_EQ(inc.memo().size(), 1u);
}

TEST(CycleSimMemoReuse, InfeasibleBandsNeverEvictFeasibleTopologies)
{
    // A feasibility boundary crossed once per buffer-node row (30, 60
    // feasible; 1e5, 2e5 not) on Ed-Gaze, whose pass B simulates the
    // line buffer's stall cone. A failing point stores nothing, so the
    // feasible rates' topologies stay memoized across every band:
    // pass A plus two pass-B cones are simulated once each.
    IncrementalEvaluator inc(reportOptions());
    const int nodes[] = {180, 110, 65, 45};
    const double rates[] = {30.0, 60.0, 100000.0, 200000.0};
    size_t infeasible = 0;
    for (int node : nodes) {
        for (double fps : rates) {
            spec::DesignSpec spec = edgazeSpec(EdgazeVariant::TwoDIn, 65);
            spec.fps = fps;
            for (spec::MemorySpec &m : spec.memories)
                m.nodeNm = node;
            const SimulationOutcome out = inc.evaluate(spec);
            expectIdenticalOutcome(out, referenceOutcome(spec),
                                   spec.name);
            if (!out.feasible)
                ++infeasible;
        }
    }
    ASSERT_GT(infeasible, 0u); // the band actually exists
    ASSERT_LT(infeasible, 16u);
    EXPECT_EQ(inc.stats().points, 16u);
    EXPECT_EQ(inc.memo().stats().misses, 3u);
}

// ----------------------------------------------------- stage stats

TEST(IncrementalStats, StagesRunCountsOnlyStagesActuallyEntered)
{
    IncrementalEvaluator inc(reportOptions());
    spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);
    EXPECT_EQ(inc.stats().stagesRun, 6u);

    // fps over the boundary: Map through the throwing Timing stage
    // are entered, and nothing after the throwing stage may be
    // counted as run.
    spec::DesignSpec fast = spec;
    fast.fps = 100000.0;
    fast.name = "detector-65nm-too-fast";
    const SimulationOutcome bad = inc.evaluate(fast);
    ASSERT_FALSE(bad.feasible);
    EXPECT_EQ(inc.stats().stagesRun, 11u);
    EXPECT_EQ(inc.stats().fullBuilds, 2u);

    // A point rejected by materialize() enters no stage at all.
    spec::DesignSpec unnamed = spec;
    unnamed.name.clear();
    ASSERT_FALSE(inc.evaluate(unnamed).feasible);
    EXPECT_EQ(inc.stats().stagesRun, 11u);
}

// --------------------------------------------- the on-disk store

TEST(OutcomeStoreDisk, RoundTripsAcrossEvaluatorInstances)
{
    ScopedCacheDir dir("roundtrip");
    SimulationOptions opts = reportOptions();
    opts.withNoise = true; // exercises the derived-metric recompute
    opts.frames = 3;

    spec::DesignSpec good = spec::sampleDetectorSpec(30.0, 65);
    spec::DesignSpec bad = spec::sampleDetectorSpec(100000.0, 65);

    SimulationOutcome good_ref;
    SimulationOutcome bad_ref;
    {
        IncrementalEvaluator writer(opts, dir.path());
        good_ref = writer.evaluate(good);
        bad_ref = writer.evaluate(bad);
        ASSERT_TRUE(good_ref.feasible);
        ASSERT_FALSE(bad_ref.feasible);
        ASSERT_NE(writer.outcomeStoreStats(), nullptr);
        EXPECT_EQ(writer.outcomeStoreStats()->stores, 2u);
        EXPECT_EQ(writer.outcomeStoreStats()->hits, 0u);
    }

    // A second evaluator (fresh process in spirit): both outcomes
    // must come back from disk, bit-identical — derived fields
    // (frames, SNR penalty, rule code) included.
    IncrementalEvaluator reader(opts, dir.path());
    expectIdenticalOutcome(reader.evaluate(good), good_ref, good.name);
    expectIdenticalOutcome(reader.evaluate(bad), bad_ref, bad.name);
    EXPECT_EQ(reader.stats().diskHits, 2u);
    EXPECT_EQ(reader.stats().fullBuilds, 0u);
    ASSERT_NE(reader.outcomeStoreStats(), nullptr);
    EXPECT_EQ(reader.outcomeStoreStats()->hits, 2u);

    // And the disk answers must equal a from-scratch Simulator.
    expectIdenticalOutcome(good_ref, referenceOutcome(good, opts),
                           good.name);
    expectIdenticalOutcome(bad_ref, referenceOutcome(bad, opts),
                           bad.name);
}

TEST(OutcomeStoreDisk, StrictModeRethrowsStoredFailures)
{
    ScopedCacheDir dir("strict");
    spec::DesignSpec bad = spec::sampleDetectorSpec(100000.0, 65);

    SimulationOutcome ref;
    {
        IncrementalEvaluator writer(reportOptions(), dir.path());
        ref = writer.evaluate(bad);
        ASSERT_FALSE(ref.feasible);
    }

    SimulationOptions strict;
    strict.checkMode = CheckMode::Strict;
    IncrementalEvaluator reader(strict, dir.path());
    try {
        reader.evaluate(bad);
        FAIL() << "stored infeasibility must rethrow under Strict";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()), ref.error);
    }
    EXPECT_EQ(reader.stats().diskHits, 1u);
}

TEST(OutcomeStoreDisk, CorruptedFilesDegradeToRebuilds)
{
    ScopedCacheDir dir("corrupt");
    spec::DesignSpec good = spec::sampleDetectorSpec(30.0, 65);
    spec::DesignSpec bad = spec::sampleDetectorSpec(100000.0, 65);
    {
        IncrementalEvaluator writer(reportOptions(), dir.path());
        writer.evaluate(good);
        writer.evaluate(bad);
    }

    // Corrupt one record and truncate the other: both must read as
    // misses, the points re-evaluate from scratch (bit-identical),
    // and the rewritten files serve the next instance again.
    size_t mangled = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir.path())) {
        std::ofstream out(entry.path(),
                          std::ios::binary | std::ios::trunc);
        if (mangled++ % 2 == 0)
            out << "{\"format\": 1, \"key\": \"not the key\"";
        // else: left empty (truncated record)
    }
    ASSERT_EQ(mangled, 2u);

    IncrementalEvaluator reader(reportOptions(), dir.path());
    expectIdenticalOutcome(reader.evaluate(good),
                           referenceOutcome(good), good.name);
    expectIdenticalOutcome(reader.evaluate(bad), referenceOutcome(bad),
                           bad.name);
    EXPECT_EQ(reader.stats().diskHits, 0u);
    ASSERT_NE(reader.outcomeStoreStats(), nullptr);
    EXPECT_EQ(reader.outcomeStoreStats()->rejected, 2u);
    EXPECT_EQ(reader.outcomeStoreStats()->stores, 2u);

    IncrementalEvaluator healed(reportOptions(), dir.path());
    healed.evaluate(good);
    healed.evaluate(bad);
    EXPECT_EQ(healed.stats().diskHits, 2u);
}

TEST(OutcomeStoreDisk, UnusableCacheDirectoryThrows)
{
    // A path whose parent is a regular file can never become a
    // directory.
    ScopedCacheDir dir("baddir");
    fs::create_directories(dir.path());
    const std::string file = dir.path() + "/plain-file";
    std::ofstream(file) << "x";
    EXPECT_THROW(IncrementalEvaluator(reportOptions(), file + "/sub"),
                 ConfigError);
}

// ------------------------------------------------- sweep wiring

TEST(SweepCache, SharedCacheDirMakesTheSecondRunByteIdentical)
{
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    spec::GridSpecSource serial_source = doc.source();
    std::vector<spec::DesignSpec> specs;
    while (std::optional<spec::DesignSpec> s = serial_source.next())
        specs.push_back(std::move(*s));
    const std::vector<SweepResult> ref =
        SweepEngine(SweepOptions{.threads = 1}).runSerial(specs);

    ScopedCacheDir dir("sweep");
    SweepOptions options;
    options.threads = 2;
    options.incremental = true;
    options.cacheDir = dir.path();
    SweepEngine engine(options);

    auto run = [&] {
        spec::GridSpecSource source = doc.source();
        CollectSink collect;
        InOrderSink ordered(collect);
        engine.runStream(source, ordered);
        std::string jsonl;
        for (const SweepResult &r : collect.results())
            jsonl += sweepResultToJsonl(r);
        return jsonl;
    };

    std::string ref_jsonl;
    for (const SweepResult &r : ref)
        ref_jsonl += sweepResultToJsonl(r);

    const std::string cold = run();
    const std::string warm = run(); // answered from the shared store
    EXPECT_EQ(cold, ref_jsonl);
    EXPECT_EQ(warm, ref_jsonl);
    EXPECT_GT(std::distance(fs::directory_iterator(dir.path()),
                            fs::directory_iterator()),
              0);
}

TEST(SweepCache, UnusableCacheDirSurfacesOnTheCallingThread)
{
    ScopedCacheDir dir("sweepbad");
    fs::create_directories(dir.path());
    const std::string file = dir.path() + "/plain-file";
    std::ofstream(file) << "x";

    SweepOptions options;
    options.threads = 2;
    options.incremental = true;
    options.cacheDir = file + "/sub";
    SweepEngine engine(options);
    const std::vector<spec::DesignSpec> specs = {
        spec::sampleDetectorSpec(30.0, 65)};
    EXPECT_THROW(engine.run(specs), ConfigError);
}

} // namespace
} // namespace camj

/**
 * @file
 * Tests for the reuse layer under a sweep worker: the cycle-sim memo
 * under strided sweep orders and infeasible bands, the evaluator's
 * stage accounting, and a worker whose setup fails. The bar
 * everywhere is the same as tests/incremental_test.cc: bit-identical
 * outcomes — energies, verdicts, and error text — versus a
 * from-scratch Simulator run.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.h"
#include "digital/cyclesim.h"
#include "explore/incremental.h"
#include "explore/sweep.h"
#include "spec/grid.h"
#include "spec/samples.h"
#include "usecases/edgaze.h"

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
    EXPECT_EQ(inc.ruleCode, ref.ruleCode) << what;
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

// ------------------------------------------------- the cycle-sim memo

TEST(CycleSimMemoReuse, StridedShardOrderSimulatesEachTopologyOnce)
{
    // A stride-12 shard order over the canonical 108-point study's
    // axes, on a 599-word ActBuf (4,792 of a frame's 4,800 elements):
    // the ADC memory can fill and the classifier's last fire does not
    // wait for the whole frame, so pass A's closed form declines.
    // Consecutive points differ in the rate axis. Pass A's topology
    // ignores the rate and is simulated once; the stall check proves
    // pass B within its backlog bound up to 60 fps and simulates one
    // cone each at 120 and 240 fps (480 and 960 fps fail before pass
    // B). So the memo holds three entries, each simulated once, and
    // every outcome is bit-identical to a full rebuild.
    spec::SweepDocument doc = spec::sampleDetectorStudy();
    for (spec::MemorySpec &m : doc.base.memories) {
        if (m.name == "ActBuf")
            m.capacityWords = 599;
    }
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
    EXPECT_EQ(inc.passStats().passASimulated, total);
    EXPECT_EQ(inc.passStats().stallRoutes.cone, 24u);
    EXPECT_EQ(inc.memo().stats().misses, 3u);
    EXPECT_EQ(inc.memo().size(), 3u);
}

TEST(CycleSimMemoReuse, InfeasibleBandsNeverEvictFeasibleTopologies)
{
    // A feasibility boundary crossed once per buffer-node row (30, 60
    // feasible; 1e5, 2e5 not) on Ed-Gaze with a 4-word line buffer,
    // exactly its 2x2 window: too tight for pass A's closed form and
    // for the stall check's backlog bound, so pass A simulates the
    // whole topology and pass B the line buffer's stall cone. A
    // failing point stores nothing, so the feasible rates' topologies
    // stay memoized across every band: pass A plus two pass-B cones
    // are simulated once each.
    IncrementalEvaluator inc(reportOptions());
    const int nodes[] = {180, 110, 65, 45};
    const double rates[] = {30.0, 60.0, 100000.0, 200000.0};
    size_t infeasible = 0;
    for (int node : nodes) {
        for (double fps : rates) {
            spec::DesignSpec spec = edgazeSpec(EdgazeVariant::TwoDIn, 65);
            spec.fps = fps;
            for (spec::MemorySpec &m : spec.memories) {
                m.nodeNm = node;
                if (m.name == "LineBuffer")
                    m.capacityWords = 4;
            }
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

// ------------------------------------------------- sweep wiring

TEST(SweepWorkers, SetupFailureSurfacesOnTheCallingThread)
{
    // Each worker builds its evaluator inside the try that captures
    // worker errors; invalid options make that constructor throw on
    // both pool threads, and run() rethrows on the caller.
    SweepOptions options;
    options.threads = 2;
    options.sim.frames = 0;
    SweepEngine engine(options);
    const std::vector<spec::DesignSpec> specs = {
        spec::sampleDetectorSpec(30.0, 65),
        spec::sampleDetectorSpec(120.0, 65)};
    EXPECT_THROW(engine.run(specs), ConfigError);
}

} // namespace
} // namespace camj

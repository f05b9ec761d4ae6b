/**
 * @file
 * Tests for the sweep worker's evaluator (explore/incremental.h) and
 * its cycle-sim memo (digital/cyclesim.h): what the memo is keyed on
 * (the built topology), that it stays within its bound, and the
 * load-bearing guarantee — evaluation through the memo is
 * BIT-IDENTICAL to a from-scratch Simulator run: energies, feasibility
 * verdicts, error text, and rendered report bytes alike, over all 27
 * paper studies and the 108-point canonical grid.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/pipeline.h"
#include "digital/cyclesim.h"
#include "explore/incremental.h"
#include "explore/sink.h"
#include "explore/sweep.h"
#include "spec/grid.h"
#include "spec/samples.h"
#include "usecases/edgaze.h"
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

/** Report-mode options (what sweeps run with): failures fold into
 *  the outcome instead of throwing. */
SimulationOptions
reportOptions()
{
    SimulationOptions opts;
    opts.checkMode = CheckMode::Report;
    return opts;
}

/** Full-rebuild reference outcome (the classic Simulator path). */
SimulationOutcome
referenceOutcome(const spec::DesignSpec &spec,
                 const SimulationOptions &options = reportOptions())
{
    SimulationOptions opts = options;
    opts.checkMode = CheckMode::Report;
    return Simulator(opts).run(spec);
}

/** Bit-identical outcome comparison: verdict, error text, metrics,
 *  every per-unit energy, and the rendered report bytes. */
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
    // Report BYTES: the rendered forms downstream consumers see.
    EXPECT_EQ(a.pretty(), b.pretty()) << what;
    EXPECT_EQ(a.csv(), b.csv()) << what;
}

/** Every point of @p doc's grid, in grid order. */
std::vector<spec::DesignSpec>
gridPoints(const spec::SweepDocument &doc)
{
    spec::GridSpecSource source = doc.source();
    std::vector<spec::DesignSpec> specs;
    for (size_t i = 0; i < source.totalPoints(); ++i)
        specs.push_back(source.at(i));
    return specs;
}

/** The JSONL line a sweep would emit for @p out at @p index. */
std::string
jsonlLine(size_t index, const spec::DesignSpec &spec,
          const SimulationOutcome &out)
{
    SweepResult r;
    r.index = index;
    r.designName = spec.name;
    r.feasible = out.feasible;
    r.error = out.error;
    r.ruleCode = out.ruleCode;
    r.report = out.report;
    r.frames = out.frames;
    r.snrPenaltyDb = out.snrPenaltyDb;
    return sweepResultToJsonl(r);
}

/** An Ed-Gaze variant whose line buffer holds exactly the
 *  downsampler's 2x2 window (4 words): feasible at video rates, but an
 *  ADC memory that can fill needs window + 1 words for pass A's closed
 *  form and window + ADC rate + 1 for pass B's backlog bound, so pass
 *  A simulates the whole topology and pass B the source's cone of
 *  influence. The stock Ed-Gaze's 1,280-word buffer needs neither. */
spec::DesignSpec
edgazePoint(double fps)
{
    spec::DesignSpec spec = edgazeSpec(EdgazeVariant::TwoDIn, 65);
    spec.fps = fps;
    for (spec::MemorySpec &m : spec.memories) {
        if (m.name == "LineBuffer")
            m.capacityWords = 4;
    }
    return spec;
}

/** The sample detector with a 599-word ActBuf: 4,792 of the 4,800
 *  elements a frame puts into it. The ADC memory can then fill, and
 *  the classifier's last fire does not wait for the whole frame (its
 *  quantized retire covers 4,794.8 words), so pass A's closed form
 *  declines and pass A simulates. At video rates the stall check
 *  still proves pass B within its backlog bound, simulating nothing. */
spec::DesignSpec
detectorPoint(double fps)
{
    spec::DesignSpec spec = spec::sampleDetectorSpec(fps, 65);
    for (spec::MemorySpec &m : spec.memories) {
        if (m.name == "ActBuf")
            m.capacityWords = 599;
    }
    return spec;
}

// ------------------------------------------------- evaluator mechanics

TEST(IncrementalEvaluator, RepeatedSpecIsAnsweredFromTheMemo)
{
    IncrementalEvaluator inc(reportOptions());
    const spec::DesignSpec spec = detectorPoint(30.0);
    const SimulationOutcome first = inc.evaluate(spec);
    expectIdenticalOutcome(first, referenceOutcome(spec), spec.name);
    EXPECT_EQ(inc.stats().points, 1u);
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
    EXPECT_EQ(inc.stats().stagesRun, 6u);
    // Pass A simulated once; pass B's stall check is answered without
    // simulating (within the backlog bound), so it never looks
    // anything up.
    EXPECT_EQ(inc.memo().stats().misses, 1u);
    EXPECT_EQ(inc.memo().stats().hits, 0u);
    EXPECT_EQ(inc.passStats().passASimulated, 1u);
    EXPECT_EQ(inc.passStats().stallRoutes.bounded, 1u);
    EXPECT_GT(first.simStats.cyclesTicked, 0);

    // Pass A hits: nothing is simulated, so the point reports zero
    // cycle-sim stats, yet every stage still runs.
    const SimulationOutcome again = inc.evaluate(spec);
    expectIdenticalOutcome(again, referenceOutcome(spec), spec.name);
    EXPECT_EQ(inc.memo().stats().hits, 1u);
    EXPECT_EQ(inc.memo().stats().misses, 1u);
    EXPECT_EQ(again.simStats, CycleSimStats{});
    EXPECT_EQ(inc.stats().fullBuilds, 2u);
    EXPECT_EQ(inc.stats().stagesRun, 12u);
    // compiledCacheStats() is the same traffic under its old name.
    EXPECT_EQ(inc.compiledCacheStats().hits, 1u);
    EXPECT_EQ(inc.compiledCacheStats().misses, 1u);
}

TEST(IncrementalEvaluator, MemoKeyIsTheCycleSimTopology)
{
    // Pass A's topology and pass B's stall cone are each one memo key.
    IncrementalEvaluator inc(reportOptions());
    inc.evaluate(edgazePoint(30.0));
    EXPECT_EQ(inc.memo().stats().misses, 2u);
    EXPECT_EQ(inc.passStats().stallRoutes.cone, 1u);

    // A buffer node never reaches the cycle model: both passes hit.
    spec::DesignSpec node = edgazePoint(30.0);
    for (spec::MemorySpec &m : node.memories)
        m.nodeNm = 110;
    node.name = "edgaze-buf110";
    expectIdenticalOutcome(inc.evaluate(node), referenceOutcome(node),
                           node.name);
    EXPECT_EQ(inc.memo().stats().hits, 2u);
    EXPECT_EQ(inc.memo().stats().misses, 2u);

    // A frame rate only moves pass B's source rate: pass A hits,
    // pass B simulates the new cone.
    const spec::DesignSpec rate = edgazePoint(60.0);
    expectIdenticalOutcome(inc.evaluate(rate), referenceOutcome(rate),
                           rate.name);
    EXPECT_EQ(inc.memo().stats().hits, 3u);
    EXPECT_EQ(inc.memo().stats().misses, 3u);
    EXPECT_EQ(inc.memo().size(), 3u);
}

TEST(IncrementalEvaluator, MemoNeverExceedsItsCapacity)
{
    // More distinct frame rates than the memo holds, swept twice: the
    // second sweep re-simulates evicted pass-B cones, and every line
    // still matches a from-scratch serial run byte for byte.
    const size_t rates = CycleSimMemo::kCapacity + 4;
    spec::SweepDocument doc;
    doc.base = edgazePoint(30.0);
    spec::GridAxis rate{"rate", "fps", {}};
    for (size_t i = 0; i < rates; ++i)
        rate.values.push_back(json::Value(30.0 + static_cast<double>(i)));
    doc.grid.axes = {std::move(rate)};
    const std::vector<spec::DesignSpec> specs = gridPoints(doc);
    ASSERT_EQ(specs.size(), rates);

    const std::vector<SweepResult> ref =
        SweepEngine(SweepOptions{.threads = 1}).runSerial(specs);
    IncrementalEvaluator inc(reportOptions());
    for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < specs.size(); ++i) {
            const SimulationOutcome out = inc.evaluate(specs[i]);
            ASSERT_TRUE(out.feasible) << specs[i].name;
            EXPECT_EQ(jsonlLine(i, specs[i], out),
                      sweepResultToJsonl(ref[i]))
                << specs[i].name;
            EXPECT_LE(inc.memo().size(), CycleSimMemo::kCapacity);
        }
    }
    EXPECT_EQ(inc.memo().size(), CycleSimMemo::kCapacity);
    // One pass-A topology, hit by every later point; the cyclic walk
    // over more pass-B cones than fit misses every time.
    EXPECT_EQ(inc.memo().stats().misses, 1 + 2 * rates);
    EXPECT_EQ(inc.memo().stats().hits, 2 * rates - 1);
}

TEST(IncrementalEvaluator, StructuralEditsMatchTheSimulator)
{
    IncrementalEvaluator inc(reportOptions());
    spec::DesignSpec spec = detectorPoint(30.0);
    inc.evaluate(spec);

    // Component added.
    spec::DesignSpec grown = spec;
    spec::MemorySpec extra = grown.memories.front();
    extra.name = "SpareBuf";
    grown.memories.push_back(extra);
    grown.name = "detector-65nm-sparebuf";
    expectIdenticalOutcome(inc.evaluate(grown),
                           referenceOutcome(grown), grown.name);

    // Renamed element: names are part of the cycle-sim topology (they
    // appear in its error text), so this is a new pass-A key (pass B
    // simulates nothing for this design).
    spec::DesignSpec renamed = spec;
    renamed.memories.front().name = "RenamedBuf";
    for (spec::UnitSpec &u : renamed.units) {
        for (std::string &m : u.inputMemories) {
            if (m == spec.memories.front().name)
                m = "RenamedBuf";
        }
        for (std::string &m : u.outputMemories) {
            if (m == spec.memories.front().name)
                m = "RenamedBuf";
        }
    }
    if (renamed.adcOutputMemory == spec.memories.front().name)
        renamed.adcOutputMemory = "RenamedBuf";
    const size_t misses_before = inc.memo().stats().misses;
    expectIdenticalOutcome(inc.evaluate(renamed),
                           referenceOutcome(renamed), renamed.name);
    EXPECT_EQ(inc.memo().stats().misses, misses_before + 1);
}

TEST(IncrementalEvaluator, StageShapeEditReportsTheSimulatorsError)
{
    // A stage-shape edit that breaks an edge's shape agreement must
    // be rejected with the full path's exact error.
    IncrementalEvaluator inc(reportOptions());
    inc.evaluate(spec::sampleDetectorSpec(30.0, 65));

    spec::DesignSpec broken = spec::sampleDetectorSpec(30.0, 65);
    for (spec::StageSpec &st : broken.stages) {
        if (st.params.name == "Conv") {
            // Self-consistent stencil, but the producer still emits
            // the original shape: only the DAG validation sees it.
            st.params.inputSize = {100, 60, 1};
            st.params.outputSize = {98, 58, 8};
        }
    }
    const SimulationOutcome bad = inc.evaluate(broken);
    const SimulationOutcome ref = referenceOutcome(broken);
    ASSERT_FALSE(ref.feasible);
    ASSERT_FALSE(bad.feasible);
    EXPECT_EQ(bad.error, ref.error);
}

TEST(IncrementalEvaluator, InfeasiblePointsMatchTheSimulator)
{
    IncrementalEvaluator inc(reportOptions());
    spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);

    // Over the feasibility boundary: the error text must match the
    // full path's exactly, and the feasible point after it is still
    // answered correctly.
    spec::DesignSpec fast = spec;
    fast.fps = 100000.0;
    fast.name = "detector-65nm-too-fast";
    const SimulationOutcome bad = inc.evaluate(fast);
    const SimulationOutcome ref = referenceOutcome(fast);
    ASSERT_FALSE(bad.feasible);
    EXPECT_EQ(bad.error, ref.error);
    EXPECT_EQ(bad.ruleCode, ref.ruleCode);
    expectIdenticalOutcome(inc.evaluate(spec), referenceOutcome(spec),
                           spec.name);
}

TEST(IncrementalEvaluator, ChangedPathArgumentIsIgnored)
{
    // The two-argument form forwards to evaluate(spec): even a hint
    // that names the wrong field cannot change the answer.
    IncrementalEvaluator inc(reportOptions());
    spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);
    spec.fps = 120.0;
    spec.name = "detector-65nm-120fps";
    const SimulationOutcome out =
        inc.evaluate(spec, {"memories[ActBuf].nodeNm"});
    expectIdenticalOutcome(out, referenceOutcome(spec), spec.name);
    EXPECT_EQ(inc.stats().points, 2u);
}

TEST(IncrementalEvaluator, StrictModeRethrowsLikeTheSimulator)
{
    SimulationOptions opts;
    opts.checkMode = CheckMode::Strict;
    IncrementalEvaluator inc(opts);
    spec::DesignSpec fast = spec::sampleDetectorSpec(100000.0, 65);
    std::string ref_error;
    try {
        Simulator(opts).run(fast);
    } catch (const ConfigError &e) {
        ref_error = e.what();
    }
    ASSERT_FALSE(ref_error.empty());
    try {
        inc.evaluate(fast);
        FAIL() << "an infeasible point must rethrow under Strict";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()), ref_error);
    }
}

TEST(IncrementalEvaluator, RejectsInvalidOptions)
{
    SimulationOptions opts;
    opts.frames = 0;
    EXPECT_THROW(IncrementalEvaluator{opts}, ConfigError);
}

TEST(IncrementalEvaluator, NoiseMetricMatchesTheSimulatorPath)
{
    SimulationOptions opts = reportOptions();
    opts.withNoise = true;
    opts.frames = 3;
    IncrementalEvaluator inc(opts);
    spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);
    spec.fps = 15.0;
    spec.name = "detector-65nm-15fps";
    const SimulationOutcome out = inc.evaluate(spec);
    const SimulationOutcome ref = referenceOutcome(spec, opts);
    expectIdenticalOutcome(out, ref, spec.name);
    EXPECT_EQ(out.snrPenaltyDb, ref.snrPenaltyDb);
    EXPECT_EQ(out.frames, 3);
}

// ----------------------------------------------- bit-identity at scale

TEST(IncrementalIdentity, AllPaperStudiesThroughOneEvaluator)
{
    // The 27 studies are wildly heterogeneous (different components,
    // memories, units), so consecutive diffs exercise the structural
    // fallback heavily — every outcome must still be bit-identical
    // to its own full rebuild.
    IncrementalEvaluator inc(reportOptions());
    for (const PaperStudy &study : allPaperStudies()) {
        expectIdenticalOutcome(inc.evaluate(study.spec),
                               referenceOutcome(study.spec),
                               study.key);
    }
    EXPECT_EQ(inc.stats().points, 27u);
}

TEST(IncrementalIdentity, CanonicalGridRowMajorAndStrided)
{
    // The 108-point canonical study through one evaluator per order:
    // grid order (rate outermost) and the stride-12 order of
    // `camj_sweep plan --mode strided`, which revisits every rate in
    // each column. Every point is bit-identical to its own full
    // rebuild. On the canonical grid neither order simulates anything:
    // every pass A drains in closed form, and every pass-B stall check
    // (84: the two fastest rates fail before pass B) is answered
    // statically, because ActBuf holds 131,072 elements against 4,800
    // words of inflow. So the memo sees no lookup. The same axes over
    // detectorPoint's 599-word ActBuf keep it busy in both orders:
    // pass A simulates one topology for all 108 points, and the stall
    // check simulates one cone each at 120 and 240 fps (24 points),
    // proving the other 60 within the backlog bound.
    struct Case
    {
        spec::SweepDocument doc;
        size_t misses;
        size_t lookups;
        PassSimStats routes;
    };
    Case canonical{spec::sampleDetectorStudy(), 0, 0, {}};
    canonical.routes.passAClosedForm = 108;
    canonical.routes.stallRoutes.stallFree = 84;
    Case declined{spec::sampleDetectorStudy(), 3, 132, {}};
    declined.doc.base = detectorPoint(30.0);
    declined.routes.passASimulated = 108;
    declined.routes.stallRoutes.bounded = 60;
    declined.routes.stallRoutes.cone = 24;

    for (const Case &c : {canonical, declined}) {
        const std::vector<spec::DesignSpec> specs = gridPoints(c.doc);
        ASSERT_EQ(specs.size(), 108u);
        std::vector<SimulationOutcome> ref;
        for (const spec::DesignSpec &s : specs)
            ref.push_back(referenceOutcome(s));

        const size_t stride = 12; // 4 buffer nodes x 3 duty cycles
        std::vector<size_t> strided;
        for (size_t k = 0; k < stride; ++k)
            for (size_t i = k; i < specs.size(); i += stride)
                strided.push_back(i);
        std::vector<size_t> row_major;
        for (size_t i = 0; i < specs.size(); ++i)
            row_major.push_back(i);

        for (const std::vector<size_t> *order : {&row_major, &strided}) {
            IncrementalEvaluator inc(reportOptions());
            for (size_t i : *order)
                expectIdenticalOutcome(inc.evaluate(specs[i]), ref[i],
                                       specs[i].name);
            const PassSimStats &got = inc.passStats();
            EXPECT_EQ(inc.stats().points, specs.size());
            EXPECT_EQ(inc.memo().stats().misses, c.misses);
            EXPECT_EQ(inc.memo().stats().hits + inc.memo().stats().misses,
                      c.lookups);
            EXPECT_EQ(got.passAClosedForm, c.routes.passAClosedForm);
            EXPECT_EQ(got.passASimulated, c.routes.passASimulated);
            EXPECT_EQ(got.stallRoutes, c.routes.stallRoutes);
            if (c.lookups == 0) {
                EXPECT_EQ(got.passA, CycleSimStats{});
                EXPECT_EQ(got.passB, CycleSimStats{});
            }
        }
    }
}

TEST(IncrementalIdentity, SweepEngineIncrementalMatchesSerial)
{
    // The engine-level wiring: a 2-thread streaming run (each worker
    // on its own memo evaluator) over the canonical grid delivers the
    // exact results (and JSONL bytes) of the memo-free serial path.
    const spec::SweepDocument doc = spec::sampleDetectorStudy();

    const spec::GridSpecSource source = doc.source();
    std::vector<spec::DesignSpec> specs;
    for (size_t i = 0; i < source.totalPoints(); ++i)
        specs.push_back(source.at(i));
    SweepEngine reference_engine(SweepOptions{.threads = 1});
    const std::vector<SweepResult> ref =
        reference_engine.runSerial(specs);

    SweepOptions options;
    options.threads = 2;
    SweepEngine engine(options);
    CollectSink collect;
    InOrderSink ordered(collect);
    engine.runStream(source, ordered);
    const std::vector<SweepResult> &inc = collect.results();

    ASSERT_EQ(inc.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(inc[i].index, ref[i].index);
        EXPECT_EQ(inc[i].designName, ref[i].designName);
        EXPECT_EQ(inc[i].feasible, ref[i].feasible) << i;
        EXPECT_EQ(inc[i].error, ref[i].error) << i;
        EXPECT_EQ(sweepResultToJsonl(inc[i]),
                  sweepResultToJsonl(ref[i]))
            << inc[i].designName;
    }
}

// ------------------------------------------------ reuse leaks no state

/** Points drawn from several sources in a given order, each asked for
 *  by pointAt, so the sources that build in place take turns filling
 *  one worker's SpecPoint. */
class InterleavedSource : public spec::SpecSource
{
  public:
    void add(const spec::SpecSource &source, size_t index)
    {
        order_.emplace_back(&source, index);
    }

    size_t totalPoints() const override { return order_.size(); }
    spec::DesignSpec at(size_t i) const override
    {
        return order_.at(i).first->at(order_.at(i).second);
    }
    void pointAt(size_t i, spec::SpecPoint &point) const override
    {
        order_.at(i).first->pointAt(order_.at(i).second, point);
    }

  private:
    std::vector<std::pair<const spec::SpecSource *, size_t>> order_;
};

/** One design per pipeline stage that fails in it, in stage order:
 *  Map (E008), Analog (E010), Digital (E012), CycleSim (pass A's
 *  deadlock, a thrown D001: no E rule reaches that stage from a valid
 *  spec) and Energy (E016). Timing fails only with D001 and D002. */
std::vector<spec::DesignSpec>
stageFailures()
{
    std::vector<spec::DesignSpec> specs(5, spec::sampleDetectorSpec(30.0, 65));
    specs[0].mapping[1].second = "ActBuf"; // only Input maps to a memory
    specs[1].analogArrays[1].component.kind = spec::ComponentKind::Aps4T;
    specs[2].units[0].inputMemories.clear();
    specs[3] = edgazeSpec(EdgazeVariant::TwoDIn, 65);
    for (spec::MemorySpec &m : specs[3].memories) {
        if (m.name == "DnnBuffer")
            m.capacityWords = 8;
    }
    specs[4].mipi.present = false;
    return specs;
}

/** The canonical grid's base with ActBuf cut to 40 words: 24 of its
 *  108 points stall the ADC source (D001) at 120 and 240 fps. */
spec::SweepDocument
cutActBufStudy()
{
    spec::SweepDocument doc = spec::sampleDetectorStudy();
    for (spec::MemorySpec &m : doc.base.memories) {
        if (m.name == "ActBuf")
            m.capacityWords = 40;
    }
    return doc;
}

/** The indices of @p source's points whose reference outcome carries
 *  @p code. */
std::vector<size_t>
pointsWithCode(const spec::SpecSource &source, const std::string &code)
{
    std::vector<size_t> out;
    for (size_t i = 0; i < source.totalPoints(); ++i) {
        if (referenceOutcome(source.at(i)).ruleCode == code)
            out.push_back(i);
    }
    return out;
}

TEST(IncrementalReuse, NoStateLeaksBetweenPoints)
{
    // One evaluator keeps one pipeline, and a grid builds each point
    // into the worker's SpecPoint: every stage output, the report and
    // the point's spec are overwritten, never rebuilt. A seeded
    // interleaving of the 27 studies, the canonical grid's 24 D002
    // points, the 24 D001 points of that grid with a 40-word ActBuf
    // and one failure per stage, each point visited twice, puts every
    // kind of point after every other; each line must be the bytes of
    // a fresh Simulator::run of the same spec.
    spec::VectorSpecSource studies([] {
        std::vector<spec::DesignSpec> specs;
        for (const PaperStudy &study : allPaperStudies())
            specs.push_back(study.spec);
        return specs;
    }());
    const spec::GridSpecSource canonical =
        spec::sampleDetectorStudy().source();
    const spec::GridSpecSource cut = cutActBufStudy().source();
    spec::VectorSpecSource failures(stageFailures());
    const std::vector<size_t> d002 = pointsWithCode(canonical, "CAMJ-D002");
    const std::vector<size_t> d001 = pointsWithCode(cut, "CAMJ-D001");
    ASSERT_EQ(d002.size(), 24u);
    ASSERT_EQ(d001.size(), 24u);

    std::vector<std::pair<const spec::SpecSource *, size_t>> pool;
    for (int visit = 0; visit < 2; ++visit) {
        for (size_t i = 0; i < studies.totalPoints(); ++i)
            pool.emplace_back(&studies, i);
        for (size_t i : d002)
            pool.emplace_back(&canonical, i);
        for (size_t i : d001)
            pool.emplace_back(&cut, i);
        for (size_t i = 0; i < failures.totalPoints(); ++i)
            pool.emplace_back(&failures, i);
    }
    // Fisher-Yates over a splitmix64 stream: the same order everywhere.
    uint64_t state = 2024;
    auto next = [&state] {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (size_t i = pool.size(); i > 1; --i)
        std::swap(pool[i - 1], pool[next() % i]);

    InterleavedSource mixed;
    std::vector<std::string> reference;
    for (const auto &[source, index] : pool) {
        mixed.add(*source, index);
        const spec::DesignSpec spec = source->at(index);
        reference.push_back(
            jsonlLine(reference.size(), spec, referenceOutcome(spec)));
    }

    // One evaluator over the specs.
    IncrementalEvaluator inc(reportOptions());
    for (size_t k = 0; k < mixed.totalPoints(); ++k) {
        const spec::DesignSpec spec = mixed.at(k);
        EXPECT_EQ(jsonlLine(k, spec, inc.evaluate(spec)), reference[k])
            << spec.name;
    }

    // One worker over the points: the grids build theirs in place.
    CollectSink collect;
    SweepEngine(SweepOptions{.threads = 1}).runStream(mixed, collect);
    ASSERT_EQ(collect.results().size(), reference.size());
    for (size_t k = 0; k < reference.size(); ++k)
        EXPECT_EQ(sweepResultToJsonl(collect.results()[k]), reference[k])
            << collect.results()[k].designName;
}

TEST(IncrementalReuse, StrictModeThrowsTheDynamicVerdicts)
{
    // D001 and D002 leave the pipeline as values in Report mode; in
    // Strict mode they are thrown, through the evaluator as through
    // Design::simulate, Simulator::run and runAll: one ConfigError,
    // its text and rule those of the throw inside the stage.
    const spec::GridSpecSource canonical =
        spec::sampleDetectorStudy().source();
    const spec::GridSpecSource cut = cutActBufStudy().source();
    struct Verdict
    {
        spec::DesignSpec spec;
        std::string what;
        Rule rule;
    };
    const Verdict pinned[] = {
        {canonical.at(84),
         "fatal: estimateDelays: digital latency 2.518 ms exceeds the "
         "frame time 2.083 ms; the pipeline would stall — redesign the "
         "digital units or lower the FPS target",
         Rule::D002},
        {cut.at(60),
         "fatal: Design detector-65nm-30fps/rate=120,bufnode=180,"
         "duty=0.25: pipeline stall — the ADC output memory fills up at "
         "the required frame rate (35785 blocked cycles); enlarge the "
         "buffer or speed up the consumer",
         Rule::D001},
    };
    SimulationOptions strict;
    strict.checkMode = CheckMode::Strict;
    IncrementalEvaluator inc(strict);
    auto expectThrows = [](const Verdict &v, auto &&run, const char *how) {
        try {
            run();
            ADD_FAILURE() << how << " did not throw for " << v.spec.name;
        } catch (const ConfigError &e) {
            EXPECT_EQ(std::string(e.what()), v.what) << how;
            EXPECT_EQ(e.rule(), v.rule) << how;
        }
    };
    for (const Verdict &v : pinned) {
        // A feasible point first, so the evaluator's pipeline holds
        // another point's outputs when the verdict is reached.
        inc.evaluate(canonical.at(0));
        expectThrows(v, [&] { inc.evaluate(v.spec); }, "evaluator");
        expectThrows(v, [&] { v.spec.materialize().simulate(); },
                     "Design::simulate");
        expectThrows(v, [&] { Simulator(strict).run(v.spec); },
                     "Simulator::run");
        expectThrows(v, [&] { EvalPipeline().runAll(v.spec.materialize()); },
                     "EvalPipeline::runAll");
        // Report mode returns the same text and code.
        const SimulationOutcome out = IncrementalEvaluator(reportOptions())
                                          .evaluate(v.spec);
        EXPECT_EQ(out.error, v.what);
        EXPECT_EQ(out.ruleCode, ruleCode(v.rule));
    }
    // Every D001 and D002 point of the two grids throws the text its
    // Report-mode line carries.
    for (const spec::GridSpecSource *grid : {&canonical, &cut}) {
        for (size_t i = 0; i < grid->totalPoints(); ++i) {
            const spec::DesignSpec spec = grid->at(i);
            const SimulationOutcome out = referenceOutcome(spec);
            if (out.ruleCode != "CAMJ-D001" && out.ruleCode != "CAMJ-D002")
                continue;
            const Verdict v{spec, out.error, *ruleFromCode(out.ruleCode)};
            expectThrows(v, [&] { inc.evaluate(spec); }, "evaluator");
            expectThrows(v, [&] { spec.materialize().simulate(); },
                         "Design::simulate");
        }
    }
}

} // namespace
} // namespace camj

/**
 * @file
 * Differential pinning of the fast-forward cycle-sim engine and of the
 * pass-B stall check (digital/stallcheck.h) against the reference: a
 * full-topology Mode::TickLoop run.
 *
 *   1. Randomized topology fuzz: seeded small pipelines (fractional
 *      rates, prefilled memories, port-starved buffers, chained
 *      units) must produce CycleSimResults equal field for field in
 *      both modes — including equal fatal() texts when the pipeline
 *      cannot drain.
 *   2. The stall check over the same generators: its verdict, blocked
 *      cycles and thrown text must equal the reference run's, plus one
 *      hand-built fixture per full-topology fallback reason and one
 *      that stalls inside the cone.
 *   3. Every paper study (the 27-entry registry) evaluated end to
 *      end with the reference engine (which also answers pass B on
 *      the full topology) and with the default one must produce the
 *      same EnergyReport or error text.
 *   4. The 108-point canonical sweep grid, likewise point for point,
 *      feasible and infeasible alike.
 *
 * Combined with tests/golden/energies.json this pins the core
 * invariant: neither CycleSim::Mode nor the stall cone ever changes a
 * result, only how fast it is computed. The last case pins how much
 * each study ticks per pass, so a lost fast path shows up as a
 * deterministic count, not as wall-clock noise.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/design.h"
#include "core/pipeline.h"
#include "digital/cyclesim.h"
#include "digital/stallcheck.h"
#include "spec/grid.h"
#include "spec/samples.h"
#include "spec/spec.h"
#include "study_fixture.h"

namespace camj
{
namespace
{

/** Scoped process-default mode override (restored on destruction). */
class ScopedMode
{
  public:
    explicit ScopedMode(CycleSim::Mode m)
        : prev_(CycleSim::defaultMode())
    {
        CycleSim::setDefaultMode(m);
    }
    ~ScopedMode() { CycleSim::setDefaultMode(prev_); }

  private:
    CycleSim::Mode prev_;
};

/** One run's observable outcome: the full counter set, or the fatal
 *  text when the pipeline failed to drain. */
struct Outcome
{
    bool threw = false;
    std::string error;
    CycleSimResult result;
};

Outcome
runMode(CycleSim &sim, CycleSim::Mode mode, int64_t max_cycles)
{
    sim.setMode(mode);
    Outcome out;
    try {
        out.result = sim.run(max_cycles);
    } catch (const std::exception &e) {
        out.threw = true;
        out.error = e.what();
    }
    return out;
}

void
expectSameOutcome(const Outcome &tick, const Outcome &ffwd,
                  const std::string &label)
{
    ASSERT_EQ(tick.threw, ffwd.threw) << label << ": one mode threw ("
                                      << tick.error << ffwd.error
                                      << ")";
    if (tick.threw) {
        EXPECT_EQ(tick.error, ffwd.error) << label;
        return;
    }
    const CycleSimResult &a = tick.result;
    const CycleSimResult &b = ffwd.result;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.unitBusyCycles, b.unitBusyCycles) << label;
    EXPECT_EQ(a.memReads, b.memReads) << label;
    EXPECT_EQ(a.memWrites, b.memWrites) << label;
    EXPECT_EQ(a.sourceBlockedCycles, b.sourceBlockedCycles) << label;
    EXPECT_EQ(a.portConflictCycles, b.portConflictCycles) << label;
    EXPECT_EQ(a.sourceBlocked, b.sourceBlocked) << label;
    EXPECT_TRUE(sameCounters(a, b)) << label;
}

/** Build one random small topology. Deliberately skewed toward the
 *  hard cases: fractional rates and retires, prefilled memories,
 *  single-port (starved) buffers, tight capacities, chained units. */
CycleSim
randomTopology(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto irand = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    auto frand = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };

    CycleSim sim;
    const int nm = irand(2, 6);
    std::vector<int> mems;
    for (int m = 0; m < nm; ++m) {
        SimMemory mem;
        mem.name = "m" + std::to_string(m);
        mem.capacityWords = irand(8, 4096);
        mem.readPorts = irand(1, 2);
        mem.writePorts = irand(1, 2);
        mem.prefilled = irand(0, 4) == 0;
        mems.push_back(sim.addMemory(mem));
    }

    const int ns = irand(1, 3);
    std::vector<int64_t> totals(static_cast<size_t>(nm), 0);
    for (int s = 0; s < ns; ++s) {
        SimSource src;
        src.name = "s" + std::to_string(s);
        src.totalWords = irand(100, 20000);
        src.wordsPerCycle = frand(0.25, 6.0);
        src.memIdx = mems[static_cast<size_t>(irand(0, nm - 1))];
        totals[static_cast<size_t>(src.memIdx)] += src.totalWords;
        sim.addSource(src);
    }

    const int nu = irand(1, 5);
    int prevOut = -1;
    for (int u = 0; u < nu; ++u) {
        SimUnit unit;
        unit.name = "u" + std::to_string(u);
        SimPort port;
        // Chain off the previous unit's output half the time, so
        // multi-stage pipelines with landings in flight are common.
        port.memIdx = (prevOut >= 0 && irand(0, 1) == 0)
                          ? prevOut
                          : mems[static_cast<size_t>(
                                irand(0, nm - 1))];
        port.needWords = irand(1, 64);
        port.readWords = irand(0, 8);
        port.retireWords = frand(0.05, 4.0);
        // Cumulative-arrival readiness for roughly half the ports
        // that have a plausible expected-arrivals figure.
        const int64_t expect =
            totals[static_cast<size_t>(port.memIdx)];
        if (expect > 0 && irand(0, 1) == 0)
            port.expectedWords = static_cast<double>(expect);
        unit.inputs.push_back(port);
        unit.outMemIdx =
            irand(0, 2) == 0
                ? -1
                : mems[static_cast<size_t>(irand(0, nm - 1))];
        unit.outWords = irand(1, 8);
        unit.totalFires = irand(10, 5000);
        unit.latency = irand(1, 32);
        prevOut = unit.outMemIdx;
        sim.addUnit(unit);
    }
    return sim;
}

/** Build a flow-consistent chain source -> m0 -> u0 -> m1 -> ... so
 *  that fire counts match the words actually produced upstream; these
 *  topologies usually DRAIN, exercising the jump machinery end to
 *  end rather than the fatal path. Rates and retires are drawn
 *  directly on the 8-bit dyadic grid the simulator quantizes to, so
 *  the fire-count arithmetic here is exact. */
CycleSim
consistentChain(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto irand = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    auto dyadic = [&](int elo, int ehi) {
        return std::ldexp(static_cast<double>(irand(128, 255)),
                          irand(elo, ehi) - 8);
    };

    CycleSim sim;
    const int stages = irand(1, 3);
    std::vector<int> mems;
    for (int i = 0; i <= stages; ++i) {
        SimMemory mem;
        mem.name = "m" + std::to_string(i);
        mem.capacityWords = irand(512, 4096);
        mem.readPorts = irand(1, 2);
        mem.writePorts = irand(1, 2);
        mems.push_back(sim.addMemory(mem));
    }

    const int64_t total = irand(100, 3000);
    sim.addSource({.name = "adc", .totalWords = total,
                   .wordsPerCycle = dyadic(-1, 3),
                   .memIdx = mems[0]});

    double words = static_cast<double>(total);
    for (int i = 0; i < stages; ++i) {
        SimUnit unit;
        unit.name = "u" + std::to_string(i);
        SimPort port;
        port.memIdx = mems[static_cast<size_t>(i)];
        port.needWords = irand(1, 16);
        port.readWords = irand(0, 4);
        port.retireWords = dyadic(0, 2); // [0.5, 4): no blow-up
        if (irand(0, 1) == 0)
            port.expectedWords = words;
        unit.outMemIdx =
            i + 1 < stages ? mems[static_cast<size_t>(i + 1)] : -1;
        unit.outWords = irand(1, 2);
        unit.latency = irand(1, 32);
        // Retire (almost) everything that will ever arrive, so the
        // upstream memory keeps space for its producer to finish.
        unit.totalFires = std::max<int64_t>(
            1, static_cast<int64_t>(
                   (words - static_cast<double>(port.needWords)) /
                   port.retireWords));
        words = static_cast<double>(unit.totalFires * unit.outWords);
        unit.inputs.push_back(port);
        sim.addUnit(unit);
    }
    return sim;
}

TEST(CycleSimDiff, RandomTopologiesMatchTickLoop)
{
    setLoggingEnabled(false);
    int drained = 0, fatal = 0;
    for (uint32_t i = 0; i < 120; ++i) {
        const bool wild = (i % 2) == 0;
        auto build = [&] {
            return wild ? randomTopology(0xC0FFEE + i)
                        : consistentChain(0xBEEF00 + i);
        };
        CycleSim tickSim = build();
        CycleSim ffwdSim = build();
        const Outcome tick =
            runMode(tickSim, CycleSim::Mode::TickLoop, 200000);
        const Outcome ffwd =
            runMode(ffwdSim, CycleSim::Mode::FastForward, 200000);
        expectSameOutcome(tick, ffwd,
                          "topology " + std::to_string(i));
        (tick.threw ? fatal : drained) += 1;
    }
    // The generator must actually exercise both halves of the space.
    EXPECT_GE(drained, 10);
    EXPECT_GE(fatal, 10);
}

TEST(CycleSimDiff, StalledPipelineFatalTextsMatch)
{
    setLoggingEnabled(false);
    // A source four times faster than its consumer into a tiny
    // buffer: the canonical Sec. 4.1 stall. The fast-forward engine
    // must reach the same fatal() — including the oldest-landing and
    // most-backlogged-memory diagnostics — without ticking out the
    // full budget.
    auto build = [] {
        CycleSim sim;
        const int m = sim.addMemory(
            {.name = "buf", .capacityWords = 16});
        const int out = sim.addMemory(
            {.name = "acc", .capacityWords = 1 << 24});
        sim.addSource({.name = "adc", .totalWords = 1 << 20,
                       .wordsPerCycle = 4.0, .memIdx = m});
        SimUnit u;
        u.name = "slow";
        u.inputs.push_back({.memIdx = m, .needWords = 1,
                            .readWords = 1, .retireWords = 1.0});
        u.outMemIdx = out;
        u.outWords = 1;
        u.totalFires = 1 << 20;
        u.latency = 4;
        sim.addUnit(u);
        return sim;
    };
    // The drain needs ~1M cycles at the consumer's 1 word/cycle; a
    // 500k budget cuts it mid-flight with landings still pending.
    CycleSim tickSim = build();
    CycleSim ffwdSim = build();
    const Outcome tick =
        runMode(tickSim, CycleSim::Mode::TickLoop, 500000);
    const Outcome ffwd =
        runMode(ffwdSim, CycleSim::Mode::FastForward, 500000);
    ASSERT_TRUE(tick.threw);
    expectSameOutcome(tick, ffwd, "stall");
    EXPECT_NE(tick.error.find("most backlogged mem"),
              std::string::npos);
    EXPECT_NE(tick.error.find("oldest landing"), std::string::npos);
}

// ------------------------------------------------ the stall check

/** What a stall check observes: the verdict and blocked cycles, or
 *  the drain-failure text. */
struct StallOutcome
{
    bool threw = false;
    std::string error;
    bool blocked = false;
    int64_t blockedCycles = 0;
    StallRoute route = StallRoute::FullTopology;
};

/** The reference: the full topology through the tick loop. */
StallOutcome
referenceStall(CycleSim sim, int64_t max_cycles)
{
    const Outcome o = runMode(sim, CycleSim::Mode::TickLoop, max_cycles);
    StallOutcome out;
    out.threw = o.threw;
    out.error = o.error;
    out.blocked = o.result.sourceBlocked;
    out.blockedCycles = o.result.sourceBlockedCycles;
    return out;
}

StallOutcome
checkedStall(CycleSim sim, int64_t max_cycles)
{
    sim.setMode(CycleSim::Mode::FastForward);
    StallOutcome out;
    try {
        const StallCheck c = checkSourceStall(sim, nullptr, max_cycles);
        out.blocked = c.sourceBlocked;
        out.blockedCycles = c.sourceBlockedCycles;
        out.route = c.route;
    } catch (const ConfigError &e) {
        out.threw = true;
        out.error = e.what();
    }
    return out;
}

/** The stall check of @p sim equals the reference; returns it. */
StallOutcome
expectSameStall(const CycleSim &sim, int64_t max_cycles,
                const std::string &label)
{
    const StallOutcome ref = referenceStall(sim, max_cycles);
    const StallOutcome got = checkedStall(sim, max_cycles);
    EXPECT_EQ(got.threw, ref.threw) << label << ": " << got.error
                                    << ref.error;
    EXPECT_EQ(got.error, ref.error) << label;
    EXPECT_EQ(got.blocked, ref.blocked) << label;
    EXPECT_EQ(got.blockedCycles, ref.blockedCycles) << label;
    return got;
}

TEST(StallCheckDiff, RandomTopologiesMatchTheFullTickLoop)
{
    setLoggingEnabled(false);
    StallRouteCounts routes;
    int threw = 0, blocked = 0;
    for (uint32_t i = 0; i < 480; ++i) {
        const bool wild = (i % 2) == 0;
        const CycleSim sim = wild ? randomTopology(0x5EED00 + i)
                                  : consistentChain(0xCAFE00 + i);
        const StallOutcome got =
            expectSameStall(sim, 200000, "topology " + std::to_string(i));
        if (got.threw)
            ++threw;
        else
            routes.add(got.route);
        if (got.blocked)
            ++blocked;
    }
    // The generators reach every route and both verdicts.
    EXPECT_GE(routes.stallFree, 10u);
    EXPECT_GE(routes.cone, 10u);
    EXPECT_GE(routes.fullTopology, 10u);
    EXPECT_GE(threw, 10);
    EXPECT_GE(blocked, 10);
}

/** source -> buf -> head -> mid -> tail: the head unit is the stall
 *  cone (buf holds 64 of 4,000 words); mid holds all of head's output,
 *  so the tail is outside the cone. */
CycleSim
coneAndTail(int64_t tail_fires, int tail_latency, int64_t head_need = 2)
{
    CycleSim sim;
    const int buf = sim.addMemory({.name = "buf", .capacityWords = 64});
    const int mid =
        sim.addMemory({.name = "mid", .capacityWords = 1 << 20});
    sim.addSource({.name = "adc", .totalWords = 4000,
                   .wordsPerCycle = 0.5, .memIdx = buf});
    SimUnit head;
    head.name = "head";
    head.inputs.push_back({.memIdx = buf, .needWords = head_need,
                           .readWords = 2, .retireWords = 2.0,
                           .expectedWords = 4000});
    head.outMemIdx = mid;
    head.totalFires = 2000;
    head.latency = 3;
    sim.addUnit(head);
    SimUnit tail;
    tail.name = "tail";
    tail.inputs.push_back(
        {.memIdx = mid, .needWords = 1, .readWords = 1,
         .retireWords = 2000.0 / static_cast<double>(tail_fires),
         .expectedWords = 2000});
    tail.totalFires = tail_fires;
    tail.latency = tail_latency;
    sim.addUnit(tail);
    return sim;
}

TEST(StallCheckDiff, StallInsideTheConeIsCountedExactly)
{
    setLoggingEnabled(false);
    // A source twice as fast as its consumer into a 16-word buffer:
    // it blocks for most of the frame, and the cone alone counts
    // every blocked cycle.
    CycleSim sim;
    const int buf = sim.addMemory({.name = "buf", .capacityWords = 16});
    const int out =
        sim.addMemory({.name = "out", .capacityWords = 1 << 20});
    sim.addSource({.name = "adc", .totalWords = 4000,
                   .wordsPerCycle = 2.0, .memIdx = buf});
    SimUnit slow;
    slow.name = "slow";
    slow.inputs.push_back({.memIdx = buf, .needWords = 1,
                           .readWords = 1, .retireWords = 1.0,
                           .expectedWords = 4000});
    slow.outMemIdx = out;
    slow.totalFires = 4000;
    slow.latency = 4;
    sim.addUnit(slow);
    SimUnit tail;
    tail.name = "tail";
    tail.inputs.push_back({.memIdx = out, .needWords = 1,
                           .readWords = 1, .retireWords = 1.0,
                           .expectedWords = 4000});
    tail.totalFires = 4000;
    sim.addUnit(tail);

    const StallOutcome got = expectSameStall(sim, 200000, "stall");
    EXPECT_EQ(got.route, StallRoute::Cone);
    EXPECT_TRUE(got.blocked);
    EXPECT_GT(got.blockedCycles, 1000);
}

TEST(StallCheckDiff, ConeDeadlockFallsBackForTheFullText)
{
    setLoggingEnabled(false);
    // The head waits for a 128-word window in a 64-word buffer: the
    // cone never drains, and only the full run's text names the tail.
    const StallOutcome got =
        expectSameStall(coneAndTail(2000, 1, 128), 50000, "deadlock");
    ASSERT_TRUE(got.threw);
    EXPECT_NE(got.error.find("unit tail"), std::string::npos);
}

TEST(StallCheckDiff, RemainderBackpressureFallsBack)
{
    setLoggingEnabled(false);
    // A tail writing into a 16-word memory can be held up by its own
    // consumer; with a memory that holds everything it cannot.
    for (const int64_t cap : {int64_t{16}, int64_t{1} << 20}) {
        CycleSim sim = coneAndTail(2000, 1);
        CycleSim full;
        for (SimMemory m : sim.memories())
            full.addMemory(m);
        const int sink = full.addMemory({.name = "sink",
                                         .capacityWords = cap});
        for (SimSource src : sim.sources())
            full.addSource(src);
        for (SimUnit u : sim.units()) {
            if (u.name == "tail")
                u.outMemIdx = sink;
            full.addUnit(u);
        }
        SimUnit drain;
        drain.name = "drain";
        drain.inputs.push_back({.memIdx = sink, .needWords = 1,
                                .readWords = 1, .retireWords = 1.0,
                                .expectedWords = 2000});
        drain.totalFires = 2000;
        drain.latency = 2;
        full.addUnit(drain);
        const StallOutcome got = expectSameStall(
            full, 200000, "sink capacity " + std::to_string(cap));
        EXPECT_EQ(got.route, cap == 16 ? StallRoute::FullTopology
                                       : StallRoute::Cone);
    }
}

TEST(StallCheckDiff, RemainderFeedbackFallsBack)
{
    setLoggingEnabled(false);
    // Two units outside the cone, linked through "acc": read before it
    // is written in unit order (feedback), or after (feed-forward).
    for (const bool feedback : {true, false}) {
        CycleSim base = coneAndTail(2000, 1);
        CycleSim sim;
        for (SimMemory m : base.memories())
            sim.addMemory(m);
        const int mid = 1; // coneAndTail's head -> tail memory
        const int acc = sim.addMemory({.name = "acc",
                                       .capacityWords = 1 << 20});
        for (SimSource src : base.sources())
            sim.addSource(src);
        SimUnit producer;
        producer.name = "producer";
        producer.inputs.push_back({.memIdx = mid, .needWords = 1,
                                   .readWords = 1, .retireWords = 0.0,
                                   .expectedWords = 2000});
        producer.outMemIdx = acc;
        producer.totalFires = 500;
        producer.latency = 2;
        SimUnit consumer;
        consumer.name = "consumer";
        consumer.inputs.push_back({.memIdx = acc, .needWords = 1,
                                   .readWords = 1, .retireWords = 1.0,
                                   .expectedWords = 500});
        consumer.totalFires = 500;
        sim.addUnit(base.units()[0]); // head
        sim.addUnit(feedback ? consumer : producer);
        sim.addUnit(feedback ? producer : consumer);
        sim.addUnit(base.units()[1]); // tail
        const StallOutcome got = expectSameStall(
            sim, 200000, feedback ? "feedback" : "feed-forward");
        EXPECT_EQ(got.route, feedback ? StallRoute::FullTopology
                                      : StallRoute::Cone);
    }
}

TEST(StallCheckDiff, RemainderOverTheCycleBudgetFallsBack)
{
    setLoggingEnabled(false);
    // 200k tail fires at latency 32 leave a drain bound of ~6.4M
    // cycles: proven under a 10M budget, not under 1M (where the full
    // run still drains, in ~200k cycles).
    const CycleSim sim = coneAndTail(200000, 32);
    EXPECT_EQ(expectSameStall(sim, 1000000, "1M budget").route,
              StallRoute::FullTopology);
    EXPECT_EQ(expectSameStall(sim, 10000000, "10M budget").route,
              StallRoute::Cone);
}

TEST(StallCheckDiff, SourceThatCannotBlockIsNotSimulated)
{
    setLoggingEnabled(false);
    // buf holds the whole 4,000-word frame and only the source writes
    // it: nothing is simulated, and the verdict still matches.
    CycleSim sim;
    const int buf = sim.addMemory({.name = "buf", .capacityWords = 4096});
    sim.addSource({.name = "adc", .totalWords = 4000,
                   .wordsPerCycle = 0.75, .memIdx = buf});
    SimUnit u;
    u.name = "reader";
    u.inputs.push_back({.memIdx = buf, .needWords = 4, .readWords = 4,
                        .retireWords = 4.0, .expectedWords = 4000});
    u.totalFires = 1000;
    u.latency = 8;
    sim.addUnit(u);
    const StallOutcome got = expectSameStall(sim, 200000, "stall-free");
    EXPECT_EQ(got.route, StallRoute::StallFree);
    sim.setMode(CycleSim::Mode::FastForward);
    EXPECT_EQ(checkSourceStall(sim).stats, CycleSimStats{});
}

// ------------------------------------------------- whole pipelines

/** Evaluate a spec end to end under @p mode; full-precision total or
 *  the failure text. Under Mode::TickLoop, pass B's stall check runs
 *  the full topology: the reference. */
std::string
evalUnderMode(const spec::DesignSpec &spec, CycleSim::Mode mode)
{
    ScopedMode scoped(mode);
    try {
        Design d = spec.materialize();
        const EnergyReport r = d.simulate();
        char buf[64];
        std::snprintf(buf, sizeof buf, "ok %.17g", r.total());
        return buf;
    } catch (const std::exception &e) {
        return std::string("err ") + e.what();
    }
}

TEST(CycleSimDiff, PaperStudiesMatchTickLoop)
{
    setLoggingEnabled(false);
    for (const PaperStudy &study : testfix::studies()) {
        EXPECT_EQ(evalUnderMode(study.spec, CycleSim::Mode::TickLoop),
                  evalUnderMode(study.spec,
                                CycleSim::Mode::FastForward))
            << study.key;
    }
}

TEST(CycleSimDiff, CanonicalGridMatchesTickLoop)
{
    setLoggingEnabled(false);
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    const std::vector<spec::DesignSpec> points =
        spec::expandGrid(doc.base, doc.grid);
    ASSERT_GE(points.size(), 100u);
    for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(evalUnderMode(points[i], CycleSim::Mode::TickLoop),
                  evalUnderMode(points[i],
                                CycleSim::Mode::FastForward))
            << "grid point " << i;
    }
}

/** The cycle-sim work of evaluating @p spec with the default engine
 *  (a failed check keeps what ran before it). */
PassSimStats
passStatsOf(const spec::DesignSpec &spec)
{
    EvalPipeline pipeline;
    try {
        pipeline.runAll(spec.materialize());
    } catch (const ConfigError &) {
    }
    return pipeline.passStats();
}

TEST(StallCheckDiff, StudiesAndGridNeverFallBack)
{
    // The two tests above compare these answers with the full
    // topology's; here, how they were reached. Ed-Gaze (non-Mixed),
    // IMX500, Rhythmic and isscc22-pis simulate the cone; the other
    // digital studies and every grid point need no simulation.
    setLoggingEnabled(false);
    PassSimStats studies;
    for (const PaperStudy &study : testfix::studies())
        studies += passStatsOf(study.spec);
    EXPECT_EQ(studies.stallRoutes,
              (StallRouteCounts{.stallFree = 6, .cone = 16,
                                .fullTopology = 0}));
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    PassSimStats grid;
    for (const spec::DesignSpec &point :
         spec::expandGrid(doc.base, doc.grid))
        grid += passStatsOf(point);
    EXPECT_EQ(grid.stallRoutes,
              (StallRouteCounts{.stallFree = 84, .cone = 0,
                                .fullTopology = 0}));
}

// ---------------------------------------- ticked-cycle ceilings

/** Cycles ticked and frame cycles per pass of each paper study before
 *  the stall cone (pass B then simulated the full topology). Studies
 *  without digital units tick nothing and are not listed. */
struct ParentTicks
{
    const char *key;
    int64_t tickedA, framesA, tickedB, framesB;
};

constexpr ParentTicks kParentTicks[] = {
    {"rhythmic-2D-Off-130nm", 7, 57600, 5803, 1092267},
    {"rhythmic-2D-In-130nm", 7, 57600, 5803, 1092267},
    {"rhythmic-3D-In-130nm", 7, 57600, 5803, 1092267},
    {"rhythmic-2D-Off-65nm", 7, 57600, 5803, 1092267},
    {"rhythmic-2D-In-65nm", 7, 57600, 5803, 1092267},
    {"rhythmic-3D-In-65nm", 7, 57600, 5803, 1092267},
    {"edgaze-2D-Off-130nm", 22, 506929, 942969, 942969},
    {"edgaze-2D-In-130nm", 22, 506929, 942969, 942969},
    {"edgaze-3D-In-130nm", 22, 506929, 942969, 942969},
    {"edgaze-3D-In-STT-130nm", 22, 506929, 942969, 942969},
    {"edgaze-2D-In-Mixed-130nm", 4383, 506912, 383579, 708498},
    {"edgaze-2D-Off-65nm", 22, 506929, 942969, 942969},
    {"edgaze-2D-In-65nm", 22, 506929, 942969, 942969},
    {"edgaze-3D-In-65nm", 22, 506929, 942969, 942969},
    {"edgaze-3D-In-STT-65nm", 22, 506929, 942969, 942969},
    {"edgaze-2D-In-Mixed-65nm", 4383, 506912, 383579, 708498},
    {"isscc17-facerec", 447, 5176, 17851, 1001827},
    {"isscc21-imx500", 37, 1079679, 4088798, 4090434},
    {"vlsi21-gs-dps", 7, 124848, 5219, 770147},
    {"isscc22-pis", 42254, 46610, 27971, 190979},
    {"detector-130nm-30fps", 2097, 50358, 28787, 205873},
    {"detector-65nm-30fps", 2097, 50358, 28787, 205873},
};

/** max(1.1 x the parent's ticks, 5% of the parent's frame). */
int64_t
ceilingOf(int64_t parent_ticked, int64_t parent_frame)
{
    return std::max(parent_ticked + parent_ticked / 10,
                    parent_frame / 20);
}

TEST(CycleSimWork, StudyTicksStayUnderTheirCeilings)
{
    setLoggingEnabled(false);
    int64_t total = 0;
    size_t checked = 0;
    for (const PaperStudy &study : testfix::studies()) {
        const PassSimStats passes = passStatsOf(study.spec);
        total += passes.passA.cyclesTicked + passes.passB.cyclesTicked;
        const ParentTicks *parent = nullptr;
        for (const ParentTicks &p : kParentTicks) {
            if (study.key == p.key)
                parent = &p;
        }
        if (parent == nullptr) {
            EXPECT_EQ(passes.passA.cyclesTicked +
                          passes.passB.cyclesTicked,
                      0)
                << study.key;
            continue;
        }
        ++checked;
        EXPECT_LE(passes.passA.cyclesTicked,
                  ceilingOf(parent->tickedA, parent->framesA))
            << study.key << " pass A";
        EXPECT_LE(passes.passB.cyclesTicked,
                  ceilingOf(parent->tickedB, parent->framesB))
            << study.key << " pass B";
        // The studies whose whole frame used to be ticked in pass B.
        const std::string key = study.key;
        if ((key.rfind("edgaze-", 0) == 0 &&
             key.find("Mixed") == std::string::npos) ||
            key == "isscc21-imx500") {
            EXPECT_LE(passes.passB.cyclesTicked, parent->framesB / 20)
                << key << " pass B";
        }
    }
    EXPECT_EQ(checked, std::size(kParentTicks));
    // 12,599,064 before the stall cone.
    EXPECT_LE(total, 600000);
}

} // namespace
} // namespace camj

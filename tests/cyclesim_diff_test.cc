/**
 * @file
 * Differential pinning of the pass-B stall check and of pass A's
 * closed-form drain (digital/stallcheck.h) against the reference: a
 * full-topology CycleSim::run().
 *
 *   1. The stall check over seeded small pipelines (fractional rates,
 *      prefilled memories, port-starved buffers, chained units) and
 *      over chains biased toward the edges of its backlog bound: its
 *      verdict, blocked cycles and thrown text must equal the
 *      reference run's. Hand-built fixtures cover each full-topology
 *      fallback reason, a stall inside the cone, and each side of
 *      every condition of the backlog bound.
 *   2. Pass A's closed-form drain cycle (chainDrainCycle), wherever it
 *      answers on those generators and on one of chains biased toward
 *      its own conditions, must equal the reference run's cycles;
 *      fixtures sit on each side of every condition.
 *   3. Every paper study (the 27-entry registry) evaluated end to
 *      end under SimRoutes::FullTopology (which simulates pass A and
 *      answers pass B on the full topology) and under the default
 *      routes must produce the same EnergyReport or error text.
 *   4. The 108-point canonical sweep grid, likewise point for point,
 *      feasible and infeasible alike.
 *
 * Combined with tests/golden/energies.json this pins the core
 * invariant: neither the stall cone nor pass A's closed form ever
 * changes a result, only how fast it is computed. The last cases pin
 * how each study's passes were answered and that neither ticks a
 * cycle, so a lost fast path shows up as a deterministic count, not
 * as wall-clock noise.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
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

/** Scoped process-wide route switch (restored on destruction). */
class ScopedRoutes
{
  public:
    explicit ScopedRoutes(SimRoutes routes) : prev_(simRoutes())
    {
        setSimRoutes(routes);
    }
    ~ScopedRoutes() { setSimRoutes(prev_); }

  private:
    SimRoutes prev_;
};

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

/** A topology as plain parts: edit a field, then build. */
struct Topology
{
    std::vector<SimMemory> mems;
    std::vector<SimSource> sources;
    std::vector<SimUnit> units;

    CycleSim build() const
    {
        CycleSim sim;
        for (const SimMemory &m : mems)
            sim.addMemory(m);
        for (const SimSource &s : sources)
            sim.addSource(s);
        for (const SimUnit &u : units)
            sim.addUnit(u);
        return sim;
    }
};

/** A flow-consistent chain source -> m0 -> u0 -> ... -> sink biased
 *  toward the edges of the stall check's backlog bound: 1-3 stages,
 *  dyadic rates 2^-4..2^4, each capacity (4-96 words) drawn around
 *  its memory's bound, an optional prefilled side input, and now and
 *  then a retire just below its writer's burst, a window below the
 *  retire, a reader stopping short, an expected count off the inflow
 *  or a second reader. */
CycleSim
edgeChain(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto irand = [&](int64_t lo, int64_t hi) {
        return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
    };
    auto oneIn = [&](int n) { return irand(1, n) == 1; };

    Topology t;
    const int stages = static_cast<int>(irand(1, 3));
    const bool side = oneIn(2);
    if (side) {
        t.mems.push_back({.name = "frame", .capacityWords = 64,
                          .readPorts = static_cast<int>(irand(1, 2)),
                          .prefilled = true});
    }
    const int first = static_cast<int>(t.mems.size());
    int64_t inflow = irand(64, 2048);
    // What the writer of the next memory puts in per cycle, and the
    // room it needs beyond the reader's window plus that burst.
    double burst = std::ldexp(1.0, static_cast<int>(irand(-4, 4)));
    int64_t extra = 1;
    t.sources.push_back({.name = "adc", .totalWords = inflow,
                         .wordsPerCycle = burst, .memIdx = first});
    for (int i = 0; i < stages; ++i) {
        SimPort port;
        port.memIdx = first + i;
        port.retireWords =
            oneIn(6) ? burst * (1.0 - 1.0 / 128)
                     : burst * std::ldexp(1.0, static_cast<int>(
                                                   irand(0, 2)));
        const int64_t window =
            static_cast<int64_t>(std::ceil(port.retireWords));
        port.needWords = oneIn(6) ? std::max<int64_t>(1, window - 1)
                                  : window + irand(0, 3);
        port.readWords = port.needWords;
        port.expectedWords = static_cast<double>(
            oneIn(8) ? inflow + (oneIn(2) ? 1 : -1) : inflow);
        SimUnit unit;
        unit.name = "u" + std::to_string(i);
        unit.inputs.push_back(port);
        if (side && oneIn(2)) {
            unit.inputs.push_back({.memIdx = 0, .needWords = 1,
                                   .readWords = 1, .retireWords = 1.0});
        }
        unit.totalFires = std::max<int64_t>(
            1, static_cast<int64_t>(std::ceil(
                   static_cast<double>(inflow) / port.retireWords)) -
                   (oneIn(6) ? irand(1, 3) : 0));
        unit.latency = static_cast<int>(irand(1, 4));
        unit.outWords = irand(1, 2);
        unit.outMemIdx = i + 1 < stages ? first + i + 1 : -1;

        const double bound = std::max(
            static_cast<double>(port.needWords) + burst +
                static_cast<double>(extra),
            static_cast<double>(inflow) -
                static_cast<double>(unit.totalFires) * port.retireWords);
        t.mems.push_back(
            {.name = "m" + std::to_string(i),
             .capacityWords = std::clamp<int64_t>(
                 static_cast<int64_t>(std::ceil(bound)) + irand(-1, 3),
                 4, 96),
             .readPorts = static_cast<int>(irand(1, 2))});
        t.units.push_back(unit);
        inflow = unit.totalFires * unit.outWords;
        burst = static_cast<double>(unit.outWords);
        extra = unit.latency * unit.outWords;
    }
    if (oneIn(4)) {
        // The last unit lands into a memory that holds everything.
        t.units.back().outMemIdx = static_cast<int>(t.mems.size());
        t.mems.push_back({.name = "acc", .capacityWords = 1 << 20});
    }
    if (oneIn(8)) {
        SimUnit spy;
        spy.name = "spy";
        spy.inputs.push_back(
            {.memIdx = first + static_cast<int>(irand(0, stages - 1)),
             .needWords = 1, .readWords = 1, .retireWords = 0.0});
        spy.totalFires = irand(1, 64);
        t.units.push_back(spy);
    }
    return t.build();
}

/** A flow-consistent chain source -> m0 -> u0 -> ... biased toward
 *  the edges of pass A's closed-form drain: 1-3 stages, integral or
 *  fractional dyadic rates and retires, a source at, just under or
 *  above its reader's retire, a source memory around window + 1 words
 *  or around the frame, unit memories around their backlog bound or
 *  their inflow, outWords at or off the next retire, readers stopping
 *  short of or past their inflow, and now and then a prefilled side
 *  input, a memory for the last landing, an idle source into a spare
 *  memory, or a spy. */
CycleSim
drainChain(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto irand = [&](int64_t lo, int64_t hi) {
        return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
    };
    auto oneIn = [&](int n) { return irand(1, n) == 1; };
    // An integer, or a dyadic in [1/8, 4] with up to ten binary
    // places.
    auto amount = [&] {
        if (oneIn(2))
            return static_cast<double>(irand(1, 4));
        const int places = static_cast<int>(irand(3, 10));
        return std::ldexp(static_cast<double>(irand(int64_t{1} << (places - 3),
                                                    4 << places)),
                          -places);
    };

    const int stages = static_cast<int>(irand(1, 3));
    std::vector<double> retire;
    for (int i = 0; i < stages; ++i)
        retire.push_back(amount());

    Topology t;
    const bool side = oneIn(3);
    if (side) {
        t.mems.push_back({.name = "frame", .capacityWords = 64,
                          .readPorts = static_cast<int>(irand(1, 2)),
                          .prefilled = true});
    }
    const int first = static_cast<int>(t.mems.size());
    int64_t inflow = irand(16, 2048);
    // The source: an integral rate, or one near the first retire.
    t.sources.push_back(
        {.name = "adc", .totalWords = inflow,
         .wordsPerCycle =
             oneIn(3) ? static_cast<double>(irand(1, 8))
             : oneIn(8)
                 ? retire[0] * (1.0 - 1.0 / 128)
                 : retire[0] *
                       (1.0 + static_cast<double>(irand(0, 4)) / 4.0),
         .memIdx = first});
    int prev_latency = 0;
    for (int i = 0; i < stages; ++i) {
        SimPort port;
        port.memIdx = first + i;
        port.retireWords = retire[static_cast<size_t>(i)];
        const int64_t window =
            static_cast<int64_t>(std::ceil(port.retireWords));
        port.needWords = oneIn(12) ? std::max<int64_t>(1, window - 1)
                                   : window + irand(0, 3);
        port.readWords = port.needWords;
        port.expectedWords = static_cast<double>(
            oneIn(16) ? inflow + (oneIn(2) ? 1 : -1) : inflow);

        SimUnit unit;
        unit.name = "u" + std::to_string(i);
        unit.inputs.push_back(port);
        if (side && oneIn(2)) {
            unit.inputs.push_back({.memIdx = 0, .needWords = 1,
                                   .readWords = 1, .retireWords = 1.0});
        }
        // Stop short of the inflow, cover it exactly, or overshoot.
        unit.totalFires = std::max<int64_t>(
            1, static_cast<int64_t>(std::ceil(
                   static_cast<double>(inflow - port.needWords) /
                   port.retireWords)) +
                   irand(-1, 2));
        unit.latency = static_cast<int>(irand(1, 4));
        unit.outMemIdx = i + 1 < stages ? first + i + 1 : -1;
        if (i + 1 < stages) {
            // outWords at the next retire (rounded up), or anywhere.
            unit.outWords =
                oneIn(4) ? irand(1, 3)
                         : static_cast<int64_t>(std::ceil(
                               retire[static_cast<size_t>(i + 1)]));
        }

        // The source memory around window + 1, a unit's around its
        // backlog bound; either now and then around its inflow.
        const double bound =
            i == 0 ? static_cast<double>(port.needWords + 1)
                   : static_cast<double>(port.needWords) +
                         port.retireWords * (1.0 + prev_latency);
        const int64_t cap =
            oneIn(2) ? inflow + irand(-1, 1)
                     : static_cast<int64_t>(std::ceil(bound)) +
                           irand(-1, 2);
        t.mems.push_back({.name = "m" + std::to_string(i),
                          .capacityWords = std::max<int64_t>(cap, 1),
                          .readPorts = static_cast<int>(irand(1, 2))});
        inflow = unit.totalFires * unit.outWords;
        prev_latency = unit.latency;
        t.units.push_back(unit);
    }
    if (oneIn(4)) {
        // The last unit lands into a memory that may hold everything.
        t.units.back().outMemIdx = static_cast<int>(t.mems.size());
        t.mems.push_back(
            {.name = "acc",
             .capacityWords = std::max<int64_t>(1, inflow + irand(-1, 0))});
    }
    if (oneIn(8)) {
        t.mems.push_back({.name = "spare", .capacityWords = 256});
        t.sources.push_back(
            {.name = "idle", .totalWords = irand(0, 300),
             .wordsPerCycle = amount(),
             .memIdx = static_cast<int>(t.mems.size()) - 1});
    }
    if (oneIn(10)) {
        SimUnit spy;
        spy.name = "spy";
        spy.inputs.push_back(
            {.memIdx = first + static_cast<int>(irand(0, stages - 1)),
             .needWords = 1, .readWords = 1, .retireWords = 0.0});
        spy.totalFires = irand(1, 64);
        t.units.push_back(spy);
    }
    return t.build();
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
    /** The reference's drain cycle. */
    int64_t cycles = 0;
    /** Pass A's drain was answered in closed form (chainDrainCycle). */
    bool closedForm = false;
};

/** The reference: a run of the full topology. */
StallOutcome
referenceStall(CycleSim sim, int64_t max_cycles)
{
    StallOutcome out;
    try {
        const CycleSimResult r = sim.run(max_cycles);
        out.blocked = r.sourceBlocked;
        out.blockedCycles = r.sourceBlockedCycles;
        out.cycles = r.cycles;
    } catch (const ConfigError &e) {
        out.threw = true;
        out.error = e.what();
    }
    return out;
}

StallOutcome
checkedStall(const CycleSim &sim, int64_t max_cycles)
{
    StallOutcome out;
    StallScratch scratch;
    try {
        const StallCheck c =
            checkSourceStall(sim, scratch, nullptr, max_cycles);
        out.blocked = c.sourceBlocked;
        out.blockedCycles = c.sourceBlockedCycles;
        out.route = c.route;
    } catch (const ConfigError &e) {
        out.threw = true;
        out.error = e.what();
    }
    return out;
}

/** The stall check of @p sim equals the reference, and so does pass
 *  A's closed-form drain cycle wherever it answers; returns both. */
StallOutcome
expectSameStall(const CycleSim &sim, int64_t max_cycles,
                const std::string &label)
{
    const StallOutcome ref = referenceStall(sim, max_cycles);
    StallOutcome got = checkedStall(sim, max_cycles);
    EXPECT_EQ(got.threw, ref.threw) << label << ": " << got.error
                                    << ref.error;
    EXPECT_EQ(got.error, ref.error) << label;
    EXPECT_EQ(got.blocked, ref.blocked) << label;
    EXPECT_EQ(got.blockedCycles, ref.blockedCycles) << label;
    StallScratch scratch;
    if (const std::optional<int64_t> drain =
            chainDrainCycle(sim, scratch, max_cycles)) {
        got.closedForm = true;
        got.cycles = *drain;
        EXPECT_FALSE(ref.threw) << label << ": closed form over a "
                                << "failing run: " << ref.error;
        EXPECT_EQ(*drain, ref.cycles) << label << ": closed-form drain";
    }
    return got;
}

TEST(StallCheckDiff, RandomTopologiesMatchTheFullTickLoop)
{
    setLoggingEnabled(false);
    StallRouteCounts routes;
    int threw = 0, blocked = 0, closed_form = 0;
    for (uint32_t i = 0; i < 480; ++i) {
        const CycleSim sim = i % 3 == 0   ? randomTopology(0x5EED00 + i)
                             : i % 3 == 1 ? consistentChain(0xCAFE00 + i)
                                          : edgeChain(0xB0DE00 + i);
        const StallOutcome got =
            expectSameStall(sim, 200000, "topology " + std::to_string(i));
        if (got.threw)
            ++threw;
        else
            routes.add(got.route);
        if (got.blocked)
            ++blocked;
        if (got.closedForm)
            ++closed_form;
    }
    // The generators reach every route and both verdicts.
    EXPECT_GE(routes.stallFree, 10u);
    EXPECT_GE(routes.bounded, 10u);
    EXPECT_GE(routes.cone, 10u);
    EXPECT_GE(routes.fullTopology, 10u);
    EXPECT_GE(threw, 10);
    EXPECT_GE(blocked, 10);
    EXPECT_GE(closed_form, 10);
}

TEST(StallCheckDiff, SeedThatOutlivesTheBudgetThrowsTheReferenceText)
{
    // Found by a 24,000-seed run of the loop above: the topology does
    // not drain within 200,000 cycles, so the stall check ends in its
    // full-topology fallback, which must throw the reference's text.
    setLoggingEnabled(false);
    const StallOutcome got =
        expectSameStall(randomTopology(0x5EED00 + 20472), 200000,
                        "seed 20472");
    ASSERT_TRUE(got.threw);
    EXPECT_NE(got.error.find("did not drain within 200000 cycles"),
              std::string::npos)
        << got.error;
    EXPECT_NE(got.error.find(" unit u2: 2690/3811 fires;"),
              std::string::npos)
        << got.error;
}

// --------------------------------------- pass A: the closed-form drain

TEST(DrainDiff, EdgeChainsMatchTheTickLoop)
{
    // Every closed-form drain cycle equals the full tick loop's; the
    // generator lands on both sides of every condition often enough.
    setLoggingEnabled(false);
    constexpr uint32_t kSeeds = 480;
    uint32_t closed_form = 0;
    for (uint32_t i = 0; i < kSeeds; ++i) {
        if (expectSameStall(drainChain(0xD4A100 + i), 200000,
                            "chain " + std::to_string(i))
                .closedForm)
            ++closed_form;
    }
    EXPECT_GE(closed_form, 60u);
}

/** source -> buf -> head -> mid -> tail: the head unit is the stall
 *  cone (buf holds 64 of 4,000 words); mid holds all of head's output,
 *  so the tail is outside the cone. With head_need 2 the cone is
 *  within its backlog bound and proven without simulating; with 1,
 *  below the head's retire of 2, it is simulated. */
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

/** coneAndTail's head windows: within the backlog bound, and below
 *  the head's retire (outside the bound). */
constexpr int64_t kHeadNeeds[] = {2, 1};

/** The route of a drain-safe coneAndTail with head window @p need. */
StallRoute
drainSafeRoute(int64_t need)
{
    return need == 2 ? StallRoute::Bounded : StallRoute::Cone;
}

TEST(StallCheckDiff, RemainderBackpressureFallsBack)
{
    setLoggingEnabled(false);
    // A tail writing into a 16-word memory can be held up by its own
    // consumer; with a memory that holds everything it cannot.
    for (const int64_t need : kHeadNeeds) {
        for (const int64_t cap : {int64_t{16}, int64_t{1} << 20}) {
            CycleSim sim = coneAndTail(2000, 1, need);
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
                full, 200000,
                "need " + std::to_string(need) + ", sink capacity " +
                    std::to_string(cap));
            EXPECT_EQ(got.route, cap == 16 ? StallRoute::FullTopology
                                           : drainSafeRoute(need));
        }
    }
}

TEST(StallCheckDiff, RemainderFeedbackFallsBack)
{
    setLoggingEnabled(false);
    // Two units outside the cone, linked through "acc": read before it
    // is written in unit order (feedback), or after (feed-forward).
    for (const int64_t need : kHeadNeeds) {
        for (const bool feedback : {true, false}) {
            CycleSim base = coneAndTail(2000, 1, need);
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
                sim, 200000,
                "need " + std::to_string(need) +
                    (feedback ? ", feedback" : ", feed-forward"));
            EXPECT_EQ(got.route, feedback ? StallRoute::FullTopology
                                          : drainSafeRoute(need));
        }
    }
}

TEST(StallCheckDiff, RemainderOverTheCycleBudgetFallsBack)
{
    setLoggingEnabled(false);
    // 200k tail fires at latency 32 leave a drain bound of ~6.4M
    // cycles: proven under a 10M budget, not under 1M (where the full
    // run still drains, in ~200k cycles).
    for (const int64_t need : kHeadNeeds) {
        const CycleSim sim = coneAndTail(200000, 32, need);
        const std::string label = "need " + std::to_string(need);
        EXPECT_EQ(expectSameStall(sim, 1000000, label + ", 1M budget")
                      .route,
                  StallRoute::FullTopology);
        EXPECT_EQ(expectSameStall(sim, 10000000, label + ", 10M budget")
                      .route,
                  drainSafeRoute(need));
    }
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
    StallScratch scratch;
    EXPECT_EQ(checkSourceStall(sim, scratch).stats, CycleSimStats{});
}

// --------------------------------------------- the backlog bound

/**
 * adc -> buf -> head -> fifo -> tail, the tail also reading a
 * prefilled frame: two chain memories, each exactly at its backlog
 * bound, so the stall check proves the cone without simulating.
 *   buf:  window 4 + rate 2 + 1 (the credit carry) = 7 words;
 *   fifo: window 2 + outWords 2 + latency 3 x outWords 2 = 10 words.
 * Its finish bound is the source's drain bound (4096 / 2 + 1) plus
 * totalFires + latency per unit: 2049 + 1027 + 1026 = 4102 cycles.
 */
Topology
boundedChain()
{
    Topology t;
    t.mems = {{.name = "buf", .capacityWords = 7},
              {.name = "fifo", .capacityWords = 10},
              {.name = "frame", .capacityWords = 64, .prefilled = true}};
    t.sources = {{.name = "adc", .totalWords = 4096,
                  .wordsPerCycle = 2.0, .memIdx = 0}};
    SimUnit head;
    head.name = "head";
    head.inputs = {{.memIdx = 0, .needWords = 4, .readWords = 4,
                    .retireWords = 4.0, .expectedWords = 4096}};
    head.outMemIdx = 1;
    head.outWords = 2;
    head.totalFires = 1024;
    head.latency = 3;
    SimUnit tail;
    tail.name = "tail";
    tail.inputs = {{.memIdx = 1, .needWords = 2, .readWords = 2,
                    .retireWords = 2.0, .expectedWords = 2048},
                   {.memIdx = 2, .needWords = 1, .readWords = 1,
                    .retireWords = 1.0}};
    tail.totalFires = 1024;
    tail.latency = 2;
    t.units = {head, tail};
    return t;
}

/** The route of @p t's stall check, which must equal the reference's
 *  answer and not throw. */
StallRoute
routeOf(const Topology &t, const std::string &label,
        int64_t max_cycles = 200000)
{
    const StallOutcome got = expectSameStall(t.build(), max_cycles, label);
    EXPECT_FALSE(got.threw) << label << ": " << got.error;
    return got.route;
}

TEST(StallCheckBound, ChainAtItsBoundsIsProvenWithoutSimulating)
{
    setLoggingEnabled(false);
    EXPECT_EQ(routeOf(boundedChain(), "at the bounds"),
              StallRoute::Bounded);
    CycleSim sim = boundedChain().build();
    CycleSimMemo memo;
    StallScratch scratch;
    const StallCheck c = checkSourceStall(sim, scratch, &memo);
    EXPECT_FALSE(c.sourceBlocked);
    EXPECT_EQ(c.sourceBlockedCycles, 0);
    EXPECT_EQ(c.stats, CycleSimStats{});
    EXPECT_EQ(memo.stats().misses, 0u);
}

TEST(StallCheckBound, SourceFasterThanTheRetireIsSimulated)
{
    setLoggingEnabled(false);
    // buf holds window 4 + rate + 1 either way; a source just above
    // the head's retire of 4 outruns it and blocks.
    Topology t = boundedChain();
    t.mems[0].capacityWords = 10;
    t.sources[0].wordsPerCycle = 3.984375; // 4 - 2^-6
    EXPECT_EQ(routeOf(t, "rate below retire"), StallRoute::Bounded);
    t.sources[0].wordsPerCycle = 4.03125; // 4 + 2^-5
    EXPECT_EQ(routeOf(t, "rate above retire"), StallRoute::Cone);
}

TEST(StallCheckBound, CapacityOneWordUnderTheBoundIsSimulated)
{
    setLoggingEnabled(false);
    Topology t = boundedChain();
    t.mems[0].capacityWords = 6;
    EXPECT_EQ(routeOf(t, "buf under"), StallRoute::Cone);
    t = boundedChain();
    t.mems[1].capacityWords = 9;
    EXPECT_EQ(routeOf(t, "fifo under"), StallRoute::Cone);
    // And a unit writing more per cycle than its reader retires.
    t = boundedChain();
    t.mems[1].capacityWords = 64;
    t.units[1].inputs[0].retireWords = 1.984375; // 2 - 2^-6
    t.units[1].totalFires = 1033;
    EXPECT_EQ(routeOf(t, "fifo retire under outWords"), StallRoute::Cone);
}

TEST(StallCheckBound, WindowBelowTheRetireIsSimulated)
{
    setLoggingEnabled(false);
    // A fire may then retire words it never waited for, and the
    // occupancy clamp decouples occupancy from arrivals.
    Topology t = boundedChain();
    t.units[0].inputs[0].needWords = 3;
    EXPECT_EQ(routeOf(t, "window 3, retire 4"), StallRoute::Cone);
}

TEST(StallCheckBound, ExpectedWordsOffTheInflowAreSimulated)
{
    setLoggingEnabled(false);
    for (const double expected : {4095.0, 4097.0}) {
        Topology t = boundedChain();
        t.units[0].inputs[0].expectedWords = expected;
        EXPECT_EQ(routeOf(t, "expected " + std::to_string(expected)),
                  StallRoute::Cone);
    }

    // Occupancy readiness (expectedWords 0) on a memory a source of
    // no words writes: zero equals its inflow, yet the reader, which
    // joins the cone through the frame, waits forever.
    Topology t = boundedChain();
    t.mems[2].readPorts = 2;
    t.mems.push_back({.name = "empty", .capacityWords = 64});
    t.sources.push_back({.name = "idle", .totalWords = 0,
                         .wordsPerCycle = 1.0, .memIdx = 3});
    SimUnit waiter;
    waiter.name = "waiter";
    waiter.inputs = {{.memIdx = 3, .needWords = 1, .readWords = 1,
                      .retireWords = 1.0},
                     {.memIdx = 2, .needWords = 1, .readWords = 1,
                      .retireWords = 1.0}};
    waiter.totalFires = 1;
    t.units.push_back(waiter);
    const StallOutcome got = expectSameStall(t.build(), 200000, "idle");
    ASSERT_TRUE(got.threw);
    EXPECT_NE(got.error.find("unit waiter: 0/1 fires"), std::string::npos);
}

TEST(StallCheckBound, ReaderStoppingShortMustLeaveWhatFits)
{
    setLoggingEnabled(false);
    // 1,023 head fires leave 4 of buf's 7 words behind: proven. 1,022
    // leave 8, which buf can never hold: the source blocks for good,
    // and the full run's "did not drain" text is the answer.
    auto stoppingAfter = [](int64_t fires) {
        Topology t = boundedChain();
        t.units[0].totalFires = fires;
        t.units[1].inputs[0].expectedWords = 2.0 * static_cast<double>(fires);
        t.units[1].totalFires = fires;
        return t;
    };
    EXPECT_EQ(routeOf(stoppingAfter(1023), "1023 fires"),
              StallRoute::Bounded);
    EXPECT_TRUE(
        expectSameStall(stoppingAfter(1022).build(), 200000, "1022 fires")
            .threw);
}

TEST(StallCheckBound, SecondReaderOfAChainMemoryIsSimulated)
{
    setLoggingEnabled(false);
    // A spy reading buf exactly as the head does: each reader alone
    // would fit the bound, but they share its port and its words.
    Topology t = boundedChain();
    SimUnit spy = t.units[0];
    spy.name = "spy";
    spy.outMemIdx = -1;
    t.units.push_back(spy);
    EXPECT_EQ(routeOf(t, "spy on buf"), StallRoute::Cone);
}

TEST(StallCheckBound, SecondWriterOfAChainMemoryIsSimulated)
{
    setLoggingEnabled(false);
    // A second source into buf finds its one write port taken by the
    // first in every cycle, and blocks.
    Topology t = boundedChain();
    t.sources.push_back({.name = "adc2", .totalWords = 1024,
                         .wordsPerCycle = 0.5, .memIdx = 0});
    t.units[0].inputs[0].expectedWords = 5120;
    t.units[0].totalFires = 1280;
    t.units[1].inputs[0].expectedWords = 2560;
    t.units[1].totalFires = 1280;
    EXPECT_EQ(routeOf(t, "two sources into buf"), StallRoute::Cone);
}

TEST(StallCheckBound, OversubscribedPrefilledInputIsSimulated)
{
    setLoggingEnabled(false);
    // head and tail both read the frame: fine with two read ports; with
    // one, each head fire costs the tail a port conflict.
    Topology t = boundedChain();
    t.units[0].inputs.push_back({.memIdx = 2, .needWords = 1,
                                 .readWords = 1, .retireWords = 1.0});
    t.mems[2].readPorts = 2;
    EXPECT_EQ(routeOf(t, "two frame ports"), StallRoute::Bounded);
    t.mems[2].readPorts = 1;
    EXPECT_EQ(routeOf(t, "one frame port"), StallRoute::Cone);
}

TEST(StallCheckBound, JoinIsSimulated)
{
    setLoggingEnabled(false);
    // The tail's side input streams from a second source instead of
    // the prefilled frame.
    Topology t = boundedChain();
    t.mems[2].prefilled = false;
    t.mems[2].capacityWords = 1024;
    t.sources.push_back({.name = "adc2", .totalWords = 1024,
                         .wordsPerCycle = 1.0, .memIdx = 2});
    t.units[1].inputs[1].expectedWords = 1024;
    EXPECT_EQ(routeOf(t, "join"), StallRoute::Cone);

    // A first input that nothing ever writes: the tail never fires,
    // and the full run's "did not drain" text is the answer.
    t = boundedChain();
    t.mems[2].prefilled = false;
    std::swap(t.units[1].inputs[0], t.units[1].inputs[1]);
    t.units[1].inputs[0].expectedWords = 16;
    const StallOutcome got = expectSameStall(t.build(), 200000, "dry");
    ASSERT_TRUE(got.threw);
    EXPECT_NE(got.error.find("unit tail: 0/1024 fires"),
              std::string::npos);
}

TEST(StallCheckBound, SourceLessCycleIsNeverProven)
{
    setLoggingEnabled(false);
    // Two units feeding each other through loopA and loopB join the
    // cone through the frame they also read. Nothing ever enters the
    // loop, so the full run cannot drain, and its text is the answer.
    Topology t = boundedChain();
    t.mems[2].readPorts = 3;
    const int loop_a = static_cast<int>(t.mems.size());
    t.mems.push_back({.name = "loopA", .capacityWords = 4});
    t.mems.push_back({.name = "loopB", .capacityWords = 4});
    for (const int in : {loop_a, loop_a + 1}) {
        SimUnit u;
        u.name = in == loop_a ? "x" : "y";
        u.inputs = {{.memIdx = in, .needWords = 1, .readWords = 1,
                     .retireWords = 1.0, .expectedWords = 8},
                    {.memIdx = 2, .needWords = 1, .readWords = 1,
                     .retireWords = 1.0}};
        u.outMemIdx = in == loop_a ? loop_a + 1 : loop_a;
        u.totalFires = 8;
        t.units.push_back(u);
    }
    const StallOutcome got = expectSameStall(t.build(), 200000, "loop");
    ASSERT_TRUE(got.threw);
    EXPECT_NE(got.error.find("unit x: 0/8 fires"), std::string::npos);
}

TEST(StallCheckBound, FinishBoundOverTheBudgetIsSimulated)
{
    setLoggingEnabled(false);
    // The chain's closed-form finish bound is 4102 cycles; it runs in
    // about half that, so the simulated cone answers under 4101.
    EXPECT_EQ(routeOf(boundedChain(), "budget 4102", 4102),
              StallRoute::Bounded);
    EXPECT_EQ(routeOf(boundedChain(), "budget 4101", 4101),
              StallRoute::Cone);

    // A source too slow for its credit arithmetic to stay exact has no
    // closed-form drain cycle (and never drains in budget).
    Topology t = boundedChain();
    t.sources[0].wordsPerCycle = 0x3p-52;
    EXPECT_TRUE(expectSameStall(t.build(), 200000, "slow").threw);
}

// ------------------------------------------------ the closed-form drain

/**
 * adc -> buf -> head -> fifo -> tail, the tail also reading a
 * prefilled frame: pass A's closed form at each of its conditions.
 *   - the source keeps pace: rate 4 = head's retire 4, integral;
 *   - buf can fill (5 of 4,096 words) and holds window 4 + 1, and the
 *     head's last fire waits for the whole frame (1023 x 4 + 4);
 *   - the head writes outWords 2 = the tail's retire into fifo, whose
 *     10 words are its backlog bound (window 2 + 2 + latency 3 x 2).
 * The head starts in cycle 0, the tail in 0 + 3 + ceil(2 / 2) - 1 =
 * 3, and the tail's last fire leaves the pipeline in cycle
 * 3 + 1024 = 1027.
 */
Topology
drainingChain()
{
    Topology t = boundedChain();
    t.mems[0].capacityWords = 5;
    t.sources[0].wordsPerCycle = 4.0;
    return t;
}

/** adc -> buf -> reader -> sink with a source of @p rate words per
 *  cycle and a reader of window @p need and @p retire words per fire,
 *  firing until it has waited for all 4,096 words; buf holds
 *  @p cap words. */
Topology
sourceLink(double rate, double retire, int64_t need, int64_t cap)
{
    Topology t;
    t.mems = {{.name = "buf", .capacityWords = cap}};
    t.sources = {{.name = "adc", .totalWords = 4096,
                  .wordsPerCycle = rate, .memIdx = 0}};
    SimUnit reader;
    reader.name = "reader";
    reader.inputs = {{.memIdx = 0, .needWords = need, .readWords = need,
                      .retireWords = retire, .expectedWords = 4096}};
    reader.totalFires = static_cast<int64_t>(std::ceil(
                            static_cast<double>(4096 - need) / retire)) +
                        1;
    t.units = {reader};
    return t;
}

/** The closed-form route of @p t's pass A, which must equal the
 *  reference's drain cycle whenever it answers. */
bool
closedForm(const Topology &t, const std::string &label,
           int64_t max_cycles = 200000)
{
    return expectSameStall(t.build(), max_cycles, label).closedForm;
}

TEST(DrainBound, ChainAtItsConditionsDrainsInClosedForm)
{
    setLoggingEnabled(false);
    CycleSim sim = drainingChain().build();
    StallScratch scratch;
    EXPECT_EQ(chainDrainCycle(sim, scratch), 1027);
    EXPECT_TRUE(closedForm(drainingChain(), "at the conditions"));
    // The reference routes always simulate the full topology.
    ScopedRoutes reference(SimRoutes::FullTopology);
    EXPECT_EQ(chainDrainCycle(sim, scratch), std::nullopt);
    EXPECT_EQ(checkSourceStall(sim, scratch).route,
              StallRoute::FullTopology);
}

TEST(DrainBound, SourceMustKeepPaceWithItsReader)
{
    setLoggingEnabled(false);
    Topology t = drainingChain();
    t.sources[0].wordsPerCycle = 3.984375; // 4 - 2^-6
    EXPECT_FALSE(closedForm(t, "rate under retire"));
    t.sources[0].wordsPerCycle = 8.0;
    EXPECT_TRUE(closedForm(t, "rate twice the retire"));

    // A fractional rate equal to the retire falls behind fire k once
    // k x 1.5 + window reaches past floor((start + 1 + k) x 1.5): a
    // window of 3 is first met in cycle 1 with no margin, a window of
    // 2 with one word to spare. An integral rate never falls behind.
    EXPECT_FALSE(closedForm(sourceLink(1.5, 1.5, 3, 4096), "window 3"));
    EXPECT_TRUE(closedForm(sourceLink(1.5, 1.5, 2, 4096), "window 2"));
    EXPECT_TRUE(closedForm(sourceLink(2.0, 1.5, 3, 4096), "rate 2"));
    // Without the margin, one fire, or a window over the whole frame
    // (every fire then waits for all of it), still never falls behind.
    Topology once = sourceLink(1.5, 1.5, 3, 4096);
    once.units[0].totalFires = 1;
    EXPECT_TRUE(closedForm(once, "one fire"));
    Topology whole = sourceLink(1.25, 1.25, 4096, 4096);
    whole.units[0].totalFires = 8;
    EXPECT_TRUE(closedForm(whole, "window of the whole frame"));
}

TEST(DrainBound, SourceMemoryThatCanFillHoldsWindowPlusOne)
{
    setLoggingEnabled(false);
    // A fractional retire leaves a fraction of a word behind: a buffer
    // holding only the window then refills short of it.
    EXPECT_FALSE(closedForm(sourceLink(4.0, 3.5, 4, 4), "window"));
    EXPECT_TRUE(closedForm(sourceLink(4.0, 3.5, 4, 5), "window + 1"));
    Topology t = drainingChain();
    t.mems[0].capacityWords = 4;
    EXPECT_FALSE(closedForm(t, "integral window"));
    t.mems[0].capacityWords = 4096;
    EXPECT_TRUE(closedForm(t, "buf holding the frame"));
}

TEST(DrainBound, ReaderStoppingShortOfAFillableSourceMemorySimulates)
{
    setLoggingEnabled(false);
    // 1,023 head fires leave 4 words behind in a 5-word buffer: the
    // source's last pushes wait on space, not on the reader.
    auto stoppingAfter = [](int64_t fires, int64_t cap) {
        Topology t = drainingChain();
        t.mems[0].capacityWords = cap;
        t.units[0].totalFires = fires;
        t.units[1].inputs[0].expectedWords = 2.0 * static_cast<double>(fires);
        t.units[1].totalFires = fires;
        return t;
    };
    EXPECT_FALSE(closedForm(stoppingAfter(1023, 5), "1023 fires"));
    EXPECT_TRUE(closedForm(stoppingAfter(1023, 4096), "1023, whole frame"));
    EXPECT_TRUE(closedForm(stoppingAfter(1025, 5), "1025 fires"));
}

TEST(DrainBound, UnitWriterMustFeedItsReadersRetire)
{
    setLoggingEnabled(false);
    // A tail retiring more than the head lands per cycle is starved
    // in some cycles.
    Topology t = drainingChain();
    t.mems[1].capacityWords = 4096;
    t.units[1].inputs[0].retireWords = 2.015625; // 2 + 2^-6
    t.units[1].totalFires = 1016;
    EXPECT_FALSE(closedForm(t, "retire over outWords"));
    t.units[1].inputs[0].retireWords = 1.984375; // 2 - 2^-6
    t.units[1].totalFires = 1032;
    EXPECT_TRUE(closedForm(t, "retire under outWords, fifo holds all"));
}

TEST(DrainBound, UnitWriterIntoAFillableMemoryMustFitItsBacklog)
{
    setLoggingEnabled(false);
    Topology t = drainingChain();
    t.mems[1].capacityWords = 9;
    EXPECT_FALSE(closedForm(t, "fifo one word under the bound"));
    // A tail retiring less than the head lands lets fifo fill up.
    t = drainingChain();
    t.mems[1].capacityWords = 64;
    t.units[1].inputs[0].retireWords = 1.984375; // 2 - 2^-6
    t.units[1].totalFires = 1032;
    EXPECT_FALSE(closedForm(t, "retire under outWords, fifo fills"));
}

TEST(DrainBound, LastLandingNeedsRoomAndAWritePort)
{
    setLoggingEnabled(false);
    auto landingIn = [](int64_t cap, int write_ports) {
        Topology t = drainingChain();
        t.units[1].outMemIdx = static_cast<int>(t.mems.size());
        t.mems.push_back({.name = "acc", .capacityWords = cap,
                          .writePorts = write_ports});
        t.sources.push_back({.name = "idle", .totalWords = 64,
                             .wordsPerCycle = 1.0,
                             .memIdx = t.units[1].outMemIdx});
        return t;
    };
    // 1,024 landings plus 64 idle words, latency 2: 1027 + 2.
    CycleSim sim = landingIn(1088, 2).build();
    StallScratch scratch;
    EXPECT_EQ(chainDrainCycle(sim, scratch), 1029);
    EXPECT_TRUE(closedForm(landingIn(1088, 2), "room and two ports"));
    EXPECT_FALSE(closedForm(landingIn(1087, 2), "one word short"));
    EXPECT_FALSE(closedForm(landingIn(1088, 1), "one write port"));
}

TEST(DrainBound, ChainShapesTheStallBoundDeclinesAreSimulated)
{
    setLoggingEnabled(false);
    // The chain walk is the stall check's: a join, a fork, a second
    // writer, an oversubscribed prefilled input, a window below the
    // retire and an expected count off the inflow all simulate.
    Topology t = drainingChain();
    t.units.push_back(t.units[0]);
    t.units.back().name = "spy";
    t.units.back().outMemIdx = -1;
    EXPECT_FALSE(closedForm(t, "second reader of buf"));

    t = drainingChain();
    t.sources.push_back({.name = "adc2", .totalWords = 1024,
                         .wordsPerCycle = 0.5, .memIdx = 0});
    t.units[0].inputs[0].expectedWords = 5120;
    t.units[0].totalFires = 1280;
    t.units[1].inputs[0].expectedWords = 2560;
    t.units[1].totalFires = 1280;
    EXPECT_FALSE(closedForm(t, "second writer of buf"));

    t = drainingChain();
    t.mems[2].prefilled = false;
    t.mems[2].capacityWords = 1024;
    t.sources.push_back({.name = "adc2", .totalWords = 1024,
                         .wordsPerCycle = 1.0, .memIdx = 2});
    t.units[1].inputs[1].expectedWords = 1024;
    EXPECT_FALSE(closedForm(t, "join"));

    t = drainingChain();
    t.units[0].inputs.push_back({.memIdx = 2, .needWords = 1,
                                 .readWords = 1, .retireWords = 1.0});
    EXPECT_FALSE(closedForm(t, "one frame port, two readers"));
    t.mems[2].readPorts = 2;
    EXPECT_TRUE(closedForm(t, "two frame ports"));

    t = drainingChain();
    t.units[0].inputs[0].needWords = 3;
    EXPECT_FALSE(closedForm(t, "window 3, retire 4"));

    t = drainingChain();
    t.units[0].inputs[0].expectedWords = 4095;
    EXPECT_FALSE(closedForm(t, "expected off the inflow"));
}

TEST(DrainBound, DrainOverTheBudgetSimulates)
{
    setLoggingEnabled(false);
    EXPECT_TRUE(closedForm(drainingChain(), "budget 1027", 1027));
    EXPECT_FALSE(closedForm(drainingChain(), "budget 1026", 1026));
    // A source writing a prefilled memory simulates too.
    Topology t = drainingChain();
    t.sources.push_back({.name = "idle", .totalWords = 64,
                         .wordsPerCycle = 1.0, .memIdx = 2});
    EXPECT_FALSE(closedForm(t, "source into the frame"));
}

TEST(DrainBound, InexactArithmeticSimulatesWhateverTheBudget)
{
    setLoggingEnabled(false);
    auto drainOf = [](const Topology &t) {
        StallScratch scratch;
        return chainDrainCycle(t.build(), scratch,
                               std::numeric_limits<int64_t>::max());
    };
    // A source too slow for exact credit arithmetic (which never
    // drains in budget either).
    Topology slow = drainingChain();
    slow.sources[0].wordsPerCycle = 0x3p-52;
    EXPECT_FALSE(closedForm(slow, "slow"));
    EXPECT_EQ(drainOf(slow), std::nullopt);
    // A retire too fine for exact readiness over its frame.
    Topology fine = sourceLink(1.0, 0x1p-45, 1, 4096);
    fine.sources[0].totalWords = 64;
    fine.units[0].inputs[0].expectedWords = 64;
    fine.units[0].totalFires = int64_t{64} << 45;
    EXPECT_EQ(drainOf(fine), std::nullopt);
    // A 2^46-word frame at 1 + 2^-7 words per cycle: the reader's
    // arithmetic is exact, the source's credit is not.
    Topology huge = sourceLink(1.0078125, 1.0, 1, int64_t{1} << 46);
    huge.sources[0].totalWords = int64_t{1} << 46;
    huge.units[0].inputs[0].expectedWords = 0x1p46;
    huge.units[0].totalFires = int64_t{1} << 46;
    EXPECT_EQ(drainOf(huge), std::nullopt);
}

TEST(DrainBound, UnitThatNeverFiresSimulates)
{
    setLoggingEnabled(false);
    // A unit with no fires never lands anything, so its start plus its
    // latency is no part of the drain: fed by the source (which is done
    // in cycle 4) or by a unit (the head is done in cycle 1027).
    Topology fed = sourceLink(4.0, 4.0, 4, 4096);
    fed.sources[0].totalWords = 16;
    fed.units[0].inputs[0].expectedWords = 16;
    fed.units[0].totalFires = 0;
    fed.units[0].latency = 64;
    fed.units[0].outMemIdx = 1;
    fed.mems.push_back({.name = "acc", .capacityWords = 64});
    EXPECT_FALSE(closedForm(fed, "silent reader of the source"));

    Topology t = drainingChain();
    t.mems[1].capacityWords = 4096;
    t.units[1].totalFires = 0;
    t.units[1].latency = 2000;
    t.units[1].outMemIdx = static_cast<int>(t.mems.size());
    t.mems.push_back({.name = "acc", .capacityWords = 64});
    EXPECT_FALSE(closedForm(t, "silent tail"));
}

// ------------------------------------------------- whole pipelines

/** Evaluate a spec end to end under @p routes; full-precision total
 *  or the failure text. Under SimRoutes::FullTopology, pass A is
 *  simulated and pass B's stall check runs the full topology: the
 *  reference. */
std::string
evalUnder(const spec::DesignSpec &spec, SimRoutes routes)
{
    ScopedRoutes scoped(routes);
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
        EXPECT_EQ(evalUnder(study.spec, SimRoutes::FullTopology),
                  evalUnder(study.spec, SimRoutes::Proven))
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
        EXPECT_EQ(evalUnder(points[i], SimRoutes::FullTopology),
                  evalUnder(points[i], SimRoutes::Proven))
            << "grid point " << i;
    }
}

/** The cycle-sim work of evaluating @p spec with the default routes
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
    // IMX500, Rhythmic and isscc22-pis fit their backlog bounds; the
    // other digital studies and every grid point have no source that
    // can block. None of them simulates anything in pass B, and every
    // pass A is a chain that drains in closed form.
    setLoggingEnabled(false);
    PassSimStats studies;
    for (const PaperStudy &study : testfix::studies())
        studies += passStatsOf(study.spec);
    EXPECT_EQ(studies.stallRoutes,
              (StallRouteCounts{.stallFree = 6, .bounded = 16,
                                .cone = 0, .fullTopology = 0}));
    EXPECT_EQ(studies.passAClosedForm, 22u);
    EXPECT_EQ(studies.passASimulated, 0u);
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    PassSimStats grid;
    for (const spec::DesignSpec &point :
         spec::expandGrid(doc.base, doc.grid))
        grid += passStatsOf(point);
    EXPECT_EQ(grid.stallRoutes,
              (StallRouteCounts{.stallFree = 84, .bounded = 0,
                                .cone = 0, .fullTopology = 0}));
    EXPECT_EQ(grid.passAClosedForm, 108u);
    EXPECT_EQ(grid.passASimulated, 0u);
}

// --------------------------------------------------- ticked cycles

TEST(CycleSimWork, StudyTicksStayUnderTheirCeilings)
{
    // Neither pass ticks a cycle on any of the 27 studies: 12,599,064
    // cycles before the stall cone, 315,201 before the backlog bound
    // and 55,923 (all pass A) before the closed-form drain.
    setLoggingEnabled(false);
    size_t digital = 0;
    for (const PaperStudy &study : testfix::studies()) {
        const PassSimStats passes = passStatsOf(study.spec);
        EXPECT_EQ(passes.passA, CycleSimStats{}) << study.key << " pass A";
        EXPECT_EQ(passes.passB, CycleSimStats{}) << study.key << " pass B";
        digital += passes.passAClosedForm;
    }
    EXPECT_EQ(digital, 22u);
}

} // namespace
} // namespace camj

/**
 * @file
 * Tests for the cycle-level pipeline simulator: drain behavior,
 * latency, stall detection (the paper's three Sec. 4.1 scenarios),
 * port conflicts, prefilled frame buffers, boundary-window semantics,
 * and where and how a run that cannot drain ends.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"
#include "digital/cyclesim.h"

namespace camj
{
namespace
{

/** One source -> memory -> consumer pipeline. */
struct SimpleChain
{
    CycleSim sim;
    int mem;

    SimpleChain(int64_t total, double rate, int64_t capacity,
                int64_t need, int64_t read, double retire,
                int64_t fires, int latency = 1)
    {
        mem = sim.addMemory({.name = "m", .capacityWords = capacity});
        sim.addSource({.name = "src", .totalWords = total,
                       .wordsPerCycle = rate, .memIdx = mem});
        SimUnit u;
        u.name = "u";
        u.inputs.push_back({.memIdx = mem, .needWords = need,
                            .readWords = read, .retireWords = retire,
                            .expectedWords =
                                static_cast<double>(total)});
        u.outMemIdx = -1;
        u.outWords = 1;
        u.totalFires = fires;
        u.latency = latency;
        sim.addUnit(u);
    }
};

TEST(CycleSim, BalancedChainDrains)
{
    SimpleChain c(1000, 1.0, 64, 1, 1, 1.0, 1000);
    CycleSimResult r = c.sim.run();
    EXPECT_FALSE(r.sourceBlocked);
    EXPECT_EQ(r.memWrites[0], 1000);
    EXPECT_EQ(r.memReads[0], 1000);
    EXPECT_EQ(r.unitBusyCycles[0], 1000);
    // One cycle of pipeline skew between arrival and consumption.
    EXPECT_NEAR(static_cast<double>(r.cycles), 1000.0, 5.0);
}

TEST(CycleSim, FastConsumerIsSourceLimited)
{
    // Source delivers 0.25 words/cycle; consumer could do 1/cycle.
    SimpleChain c(100, 0.25, 64, 1, 1, 1.0, 100);
    CycleSimResult r = c.sim.run();
    EXPECT_FALSE(r.sourceBlocked);
    EXPECT_GE(r.cycles, 400);
}

TEST(CycleSim, SlowConsumerOverflowsSmallMemory)
{
    // Source pushes 4/cycle into an 8-word buffer; consumer drains
    // 1/cycle: the Sec. 4.1 "memory full" stall.
    SimpleChain c(1000, 4.0, 8, 1, 1, 1.0, 1000);
    CycleSimResult r = c.sim.run();
    EXPECT_TRUE(r.sourceBlocked);
    EXPECT_GT(r.sourceBlockedCycles, 0);
}

TEST(CycleSim, LargeBufferAbsorbsBurst)
{
    // Same rates, but the buffer holds the entire frame: no stall.
    SimpleChain c(1000, 4.0, 2000, 1, 1, 1.0, 1000);
    CycleSimResult r = c.sim.run();
    EXPECT_FALSE(r.sourceBlocked);
}

TEST(CycleSim, BoundaryWindowsCompleteWithFractionalRetire)
{
    // Stencil-style consumer: reads a 3-word window per fire but
    // retires only ~1.3 words (sliding reuse). The tail fires must
    // complete using retained rows (the regression behind the
    // cumulative-arrival readiness rule).
    SimpleChain c(256, 3.0, 48, 3, 3, 256.0 / 196.0, 196, 2);
    CycleSimResult r = c.sim.run(100000);
    EXPECT_EQ(r.unitBusyCycles[0], 196);
    EXPECT_EQ(r.memReads[0], 3 * 196);
}

TEST(CycleSim, LatencyDelaysCompletion)
{
    CycleSim sim;
    int m0 = sim.addMemory({.name = "in", .capacityWords = 64});
    int m1 = sim.addMemory({.name = "out", .capacityWords = 64});
    sim.addSource({.name = "s", .totalWords = 10, .wordsPerCycle = 1.0,
                   .memIdx = m0});
    SimUnit u;
    u.name = "u";
    u.inputs.push_back({.memIdx = m0, .needWords = 1, .readWords = 1,
                        .retireWords = 1.0, .expectedWords = 10});
    u.outMemIdx = m1;
    u.outWords = 1;
    u.totalFires = 10;
    u.latency = 20;

    SimUnit drain;
    drain.name = "drain";
    drain.inputs.push_back({.memIdx = m1, .needWords = 1,
                            .readWords = 1, .retireWords = 1.0,
                            .expectedWords = 10});
    drain.outMemIdx = -1;
    drain.outWords = 1;
    drain.totalFires = 10;
    drain.latency = 1;

    sim.addUnit(u);
    sim.addUnit(drain);
    CycleSimResult r = sim.run();
    // Last fire at ~cycle 10, lands at ~cycle 30, drained after.
    EXPECT_GE(r.cycles, 30);
}

TEST(CycleSim, PortConflictDetected)
{
    // Two consumers share a single-read-port memory: one stalls per
    // cycle.
    CycleSim sim;
    int m = sim.addMemory({.name = "m", .capacityWords = 1024,
                           .readPorts = 1, .writePorts = 1});
    sim.addSource({.name = "s", .totalWords = 100,
                   .wordsPerCycle = 2.0, .memIdx = m});
    for (int i = 0; i < 2; ++i) {
        SimUnit u;
        u.name = "u" + std::to_string(i);
        u.inputs.push_back({.memIdx = m, .needWords = 1,
                            .readWords = 1, .retireWords = 1.0,
                            .expectedWords = 100});
        u.outMemIdx = -1;
        u.outWords = 1;
        u.totalFires = 50;
        u.latency = 1;
        sim.addUnit(u);
    }
    CycleSimResult r = sim.run();
    EXPECT_GT(r.portConflictCycles, 0);
}

TEST(CycleSim, DualPortsRemoveConflict)
{
    CycleSim sim;
    int m = sim.addMemory({.name = "m", .capacityWords = 1024,
                           .readPorts = 2, .writePorts = 1});
    sim.addSource({.name = "s", .totalWords = 100,
                   .wordsPerCycle = 2.0, .memIdx = m});
    for (int i = 0; i < 2; ++i) {
        SimUnit u;
        u.name = "u" + std::to_string(i);
        u.inputs.push_back({.memIdx = m, .needWords = 1,
                            .readWords = 1, .retireWords = 1.0,
                            .expectedWords = 100});
        u.outMemIdx = -1;
        u.outWords = 1;
        u.totalFires = 50;
        u.latency = 1;
        sim.addUnit(u);
    }
    CycleSimResult r = sim.run();
    EXPECT_EQ(r.portConflictCycles, 0);
}

TEST(CycleSim, PrefilledMemoryAlwaysReady)
{
    // A frame buffer holding the previous frame: its consumer never
    // starves even though nothing writes it this frame.
    CycleSim sim;
    int fb = sim.addMemory({.name = "fb", .capacityWords = 100,
                            .prefilled = true});
    SimUnit u;
    u.name = "u";
    u.inputs.push_back({.memIdx = fb, .needWords = 1, .readWords = 1,
                        .retireWords = 1.0, .expectedWords = 0});
    u.outMemIdx = -1;
    u.outWords = 1;
    u.totalFires = 100;
    u.latency = 1;
    sim.addUnit(u);
    CycleSimResult r = sim.run();
    EXPECT_EQ(r.unitBusyCycles[0], 100);
    EXPECT_EQ(r.memReads[0], 100);
}

/** The text sim.run(@p budget) throws; empty if it drains. */
std::string
drainError(CycleSim &sim, int64_t budget)
{
    try {
        sim.run(budget);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return {};
}

TEST(CycleSim, DeadlockDiagnosed)
{
    // A consumer expects data that never arrives; a source finishes
    // short of a consumer's window; a source fills its FIFO for a
    // consumer that also waits on a memory nothing writes. Each run
    // ends at its first idle cycle, whatever the budget, with the text
    // the budget would give.
    CycleSim starved;
    int m = starved.addMemory({.name = "m", .capacityWords = 16});
    SimUnit u;
    u.name = "u";
    u.inputs.push_back({.memIdx = m, .needWords = 1, .readWords = 1,
                        .retireWords = 1.0, .expectedWords = 0});
    u.outMemIdx = -1;
    u.outWords = 1;
    u.totalFires = 10;
    u.latency = 1;
    starved.addUnit(u);

    CycleSim short_frame;
    const int line =
        short_frame.addMemory({.name = "line", .capacityWords = 16});
    short_frame.addSource({.name = "adc", .totalWords = 4,
                           .wordsPerCycle = 1.0, .memIdx = line});
    SimUnit window;
    window.name = "window";
    window.inputs.push_back({.memIdx = line, .needWords = 8,
                             .readWords = 8, .retireWords = 8.0});
    window.totalFires = 1;
    short_frame.addUnit(window);

    CycleSim blocked;
    const int fifo =
        blocked.addMemory({.name = "fifo", .capacityWords = 4});
    const int dry = blocked.addMemory({.name = "dry", .capacityWords = 4});
    blocked.addSource({.name = "adc", .totalWords = 64,
                       .wordsPerCycle = 1.5, .memIdx = fifo});
    SimUnit join;
    join.name = "join";
    for (const int in : {fifo, dry})
        join.inputs.push_back({.memIdx = in, .needWords = 1,
                               .readWords = 1, .retireWords = 1.0,
                               .expectedWords = 64});
    join.totalFires = 64;
    blocked.addUnit(join);

    const std::string within = "did not drain within ";
    for (CycleSim *sim : {&starved, &short_frame, &blocked}) {
        const std::string small = drainError(*sim, 1000);
        const size_t at = small.find(within + "1000 cycles");
        ASSERT_NE(at, std::string::npos) << small;
        for (const int64_t budget :
             {CycleSim::kDefaultMaxCycles,
              std::numeric_limits<int64_t>::max()}) {
            std::string expected = small;
            expected.replace(at + within.size(), 4,
                             std::to_string(budget));
            EXPECT_EQ(drainError(*sim, budget), expected);
        }
    }
    EXPECT_NE(drainError(blocked, 1000)
                  .find(" source adc: 60 left; unit join: 0/64 fires; "
                        "mem fifo: occ 4.0 arrived 4.0;"),
              std::string::npos);
}

TEST(CycleSim, DrainFailureNamesTheOldestLandingAndFullestMemory)
{
    // A source four times faster than its consumer into a tiny
    // buffer, cut mid-flight by the budget with landings pending.
    CycleSim sim;
    const int m = sim.addMemory({.name = "buf", .capacityWords = 16});
    const int out =
        sim.addMemory({.name = "acc", .capacityWords = 1 << 24});
    sim.addSource({.name = "adc", .totalWords = 1 << 20,
                   .wordsPerCycle = 4.0, .memIdx = m});
    SimUnit u;
    u.name = "slow";
    u.inputs.push_back({.memIdx = m, .needWords = 1, .readWords = 1,
                        .retireWords = 1.0});
    u.outMemIdx = out;
    u.outWords = 1;
    u.totalFires = 1 << 20;
    u.latency = 4;
    sim.addUnit(u);
    const std::string error = drainError(sim, 500000);
    EXPECT_NE(error.find(" unit slow: 500000/1048576 fires;"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find(" oldest landing: 1 word(s) -> mem acc due "
                         "cycle 500000;"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find(" most backlogged mem buf: 15.0/16 words"),
              std::string::npos)
        << error;
}

/** Every counter of @p r, and the cycles ticked to get them. */
void
expectCounters(const CycleSimResult &r, int64_t cycles,
               const std::vector<int64_t> &busy,
               const std::vector<int64_t> &reads,
               const std::vector<int64_t> &writes)
{
    EXPECT_EQ(r.cycles, cycles);
    EXPECT_EQ(r.unitBusyCycles, busy);
    EXPECT_EQ(r.memReads, reads);
    EXPECT_EQ(r.memWrites, writes);
    EXPECT_EQ(r.sourceBlockedCycles, 0);
    EXPECT_EQ(r.portConflictCycles, 0);
    EXPECT_FALSE(r.sourceBlocked);
    EXPECT_EQ(r.stats.cyclesTicked, cycles);
}

TEST(CycleSim, SlowSourceIdlingBetweenPushesDrains)
{
    // About 0.2 words a cycle into a 2-word FIFO drained in pairs:
    // most cycles move nothing while the FIFO holds a free word, which
    // must not end the run.
    SimpleChain c(256, 0.2, 2, 2, 2, 2.0, 128, 3);
    expectCounters(c.sim.run(), 1279, {128}, {256}, {256});
}

TEST(CycleSim, LandingInFlightForAThousandCyclesDrains)
{
    // Ten fires land 1,000 cycles later; in between nothing moves
    // but the landings are in flight, which must not end the run.
    CycleSim sim;
    const int in = sim.addMemory({.name = "in", .capacityWords = 64});
    const int out = sim.addMemory({.name = "out", .capacityWords = 64});
    sim.addSource({.name = "adc", .totalWords = 10, .wordsPerCycle = 1.0,
                   .memIdx = in});
    SimUnit deep;
    deep.name = "deep";
    deep.inputs.push_back({.memIdx = in, .needWords = 1, .readWords = 1,
                           .retireWords = 1.0, .expectedWords = 10});
    deep.outMemIdx = out;
    deep.totalFires = 10;
    deep.latency = 1000;
    sim.addUnit(deep);
    SimUnit drain;
    drain.name = "drain";
    drain.inputs.push_back({.memIdx = out, .needWords = 10,
                            .readWords = 10, .retireWords = 10.0,
                            .expectedWords = 10});
    drain.totalFires = 1;
    sim.addUnit(drain);
    expectCounters(sim.run(), 1010, {10, 1}, {10, 10}, {10, 10});
}

TEST(CycleSim, TwoPortUnitNeedsBothInputs)
{
    // Frame-subtraction shape: current pixels from a fifo, previous
    // pixels from a prefilled frame buffer.
    CycleSim sim;
    int fifo = sim.addMemory({.name = "fifo", .capacityWords = 32});
    int fb = sim.addMemory({.name = "fb", .capacityWords = 100,
                            .prefilled = true});
    sim.addSource({.name = "s", .totalWords = 100,
                   .wordsPerCycle = 1.0, .memIdx = fifo});
    SimUnit sub;
    sub.name = "sub";
    sub.inputs.push_back({.memIdx = fifo, .needWords = 1,
                          .readWords = 1, .retireWords = 1.0,
                          .expectedWords = 100});
    sub.inputs.push_back({.memIdx = fb, .needWords = 1, .readWords = 1,
                          .retireWords = 1.0, .expectedWords = 0});
    sub.outMemIdx = -1;
    sub.outWords = 1;
    sub.totalFires = 100;
    sub.latency = 2;
    sim.addUnit(sub);

    CycleSimResult r = sim.run();
    EXPECT_EQ(r.memReads[0], 100);
    EXPECT_EQ(r.memReads[1], 100);
    EXPECT_FALSE(r.sourceBlocked);
}

TEST(CycleSim, RejectsMalformedConfigs)
{
    CycleSim sim;
    EXPECT_THROW(sim.addMemory({.name = "", .capacityWords = 1}),
                 ConfigError);
    EXPECT_THROW(sim.addMemory({.name = "m", .capacityWords = 0}),
                 ConfigError);
    int m = sim.addMemory({.name = "m", .capacityWords = 16});
    EXPECT_THROW(sim.addSource({.name = "s", .totalWords = 1,
                                .wordsPerCycle = 0.0, .memIdx = m}),
                 ConfigError);
    EXPECT_THROW(sim.addSource({.name = "s", .totalWords = 1,
                                .wordsPerCycle = 1.0, .memIdx = 7}),
                 ConfigError);
    SimUnit u;
    u.name = "u";
    EXPECT_THROW(sim.addUnit(u), ConfigError); // no inputs
    u.inputs.push_back({.memIdx = 9});
    EXPECT_THROW(sim.addUnit(u), ConfigError); // bad memory
}

TEST(CycleSimMemo, StoredRunAnswersOnlyBudgetsItDrainedWithin)
{
    // The chain drains in about 1,000 cycles: a lookup with a smaller
    // budget must fail as the run itself does, not hit the memo.
    SimpleChain c(1000, 1.0, 64, 1, 1, 1.0, 1000);
    CycleSimMemo memo;
    const CycleSimResult full = memo.run(c.sim);
    EXPECT_THROW(memo.run(c.sim, full.cycles - 1), ConfigError);
    EXPECT_EQ(memo.run(c.sim, full.cycles).cycles, full.cycles);
    EXPECT_EQ(memo.stats().hits, 1u);
    EXPECT_EQ(memo.stats().misses, 2u);
}

// Property sweep: no stall whenever the sustained source rate does
// not exceed the consumer's drain rate and the buffer absorbs the
// startup transient; guaranteed stall when it heavily exceeds it on
// a tiny buffer.
class StallBoundary
    : public ::testing::TestWithParam<double>
{
};

TEST_P(StallBoundary, UnderDrainRateNeverStalls)
{
    double rate = GetParam();
    SimpleChain c(500, rate, 64, 1, 1, 1.0, 500);
    CycleSimResult r = c.sim.run();
    EXPECT_FALSE(r.sourceBlocked) << "rate=" << rate;
}

INSTANTIATE_TEST_SUITE_P(Sweep, StallBoundary,
                         ::testing::Values(0.1, 0.5, 0.9, 1.0));

class OverdriveStall : public ::testing::TestWithParam<double>
{
};

TEST_P(OverdriveStall, OverDrainRateStalls)
{
    double rate = GetParam();
    SimpleChain c(500, rate, 16, 1, 1, 1.0, 500);
    CycleSimResult r = c.sim.run();
    EXPECT_TRUE(r.sourceBlocked) << "rate=" << rate;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OverdriveStall,
                         ::testing::Values(2.0, 4.0, 16.0));

} // namespace
} // namespace camj

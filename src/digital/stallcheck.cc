#include "digital/stallcheck.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace camj
{

namespace
{

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

/** Word totals below this stay exact in the doubles that accumulate
 *  them (arrived, occupancy); no argument here relies on larger
 *  ones. */
constexpr int64_t kExactWords = int64_t{1} << 53;

/** a + b for non-negative operands, saturating at INT64_MAX. */
int64_t
satAdd(int64_t a, int64_t b)
{
    int64_t r = 0;
    return __builtin_add_overflow(a, b, &r) ? kInt64Max : r;
}

/** a * b for non-negative operands, saturating at INT64_MAX. */
int64_t
satMul(int64_t a, int64_t b)
{
    int64_t r = 0;
    return __builtin_mul_overflow(a, b, &r) ? kInt64Max : r;
}

/** What flows into each memory over the frame. */
struct Flows
{
    /** Words ever written (sources plus unit landings), saturated. */
    std::vector<int64_t> inflow;
    /** Sources and units writing the memory. */
    std::vector<int> writers;
};

Flows
flowsOf(const CycleSim &sim)
{
    Flows f;
    f.inflow.assign(sim.memories().size(), 0);
    f.writers.assign(sim.memories().size(), 0);
    for (const SimSource &s : sim.sources()) {
        const size_t m = static_cast<size_t>(s.memIdx);
        f.inflow[m] = satAdd(f.inflow[m], s.totalWords);
        ++f.writers[m];
    }
    for (const SimUnit &u : sim.units()) {
        if (u.outMemIdx < 0)
            continue;
        const size_t m = static_cast<size_t>(u.outMemIdx);
        f.inflow[m] =
            satAdd(f.inflow[m], satMul(u.totalFires, u.outWords));
        ++f.writers[m];
    }
    return f;
}

/** Whether memory @p m can ever refuse a unit's output: it is not
 *  prefilled and holds fewer words than will flow into it. Below that
 *  inflow, occupancy + reserved + outWords never exceeds capacity. */
bool
canFill(const CycleSim &sim, const Flows &f, size_t m)
{
    return !sim.memories()[m].prefilled &&
           (f.inflow[m] >= kExactWords ||
            sim.memories()[m].capacityWords < f.inflow[m]);
}

/** Whether source @p s can ever be blocked. It cannot when it is the
 *  only writer of a memory that holds its whole frame: every cycle it
 *  then finds the space and a write port for all its credit. */
bool
canBlock(const CycleSim &sim, const Flows &f, const SimSource &s)
{
    const size_t m = static_cast<size_t>(s.memIdx);
    return f.writers[m] != 1 || f.inflow[m] >= kExactWords ||
           sim.memories()[m].capacityWords < f.inflow[m];
}

/** Membership of the sources' cone of influence. */
struct Cone
{
    std::vector<char> mem;
    std::vector<char> unit;
    /** No source can block: nothing to simulate. */
    bool empty = true;
};

Cone
coneOf(const CycleSim &sim, const Flows &f)
{
    const auto &units = sim.units();
    Cone c;
    c.mem.assign(sim.memories().size(), 0);
    c.unit.assign(units.size(), 0);
    for (const SimSource &s : sim.sources()) {
        if (canBlock(sim, f, s)) {
            c.mem[static_cast<size_t>(s.memIdx)] = 1;
            c.empty = false;
        }
    }
    auto add = [&c](int m) {
        if (c.mem[static_cast<size_t>(m)])
            return false;
        c.mem[static_cast<size_t>(m)] = 1;
        return true;
    };
    for (bool grew = !c.empty; grew;) {
        grew = false;
        for (size_t u = 0; u < units.size(); ++u) {
            const SimUnit &unit = units[u];
            if (!c.unit[u]) {
                bool touches = unit.outMemIdx >= 0 &&
                               c.mem[static_cast<size_t>(unit.outMemIdx)];
                for (const SimPort &p : unit.inputs)
                    touches = touches || c.mem[static_cast<size_t>(p.memIdx)];
                if (!touches)
                    continue;
                c.unit[u] = 1;
                grew = true;
            }
            for (const SimPort &p : unit.inputs)
                grew = add(p.memIdx) || grew;
            if (unit.outMemIdx >= 0 &&
                canFill(sim, f, static_cast<size_t>(unit.outMemIdx)))
                grew = add(unit.outMemIdx) || grew;
        }
    }
    return c;
}

/** The cone as a topology of its own: cone memories, the sources
 *  writing them, and the cone units in order, their outputs into
 *  memories outside the cone turned into sinks. */
CycleSim
buildCone(const CycleSim &sim, const Cone &c)
{
    CycleSim cone;
    cone.setMode(sim.mode());
    std::vector<int> remap(sim.memories().size(), -1);
    for (size_t m = 0; m < remap.size(); ++m) {
        if (c.mem[m])
            remap[m] = cone.addMemory(sim.memories()[m]);
    }
    for (SimSource s : sim.sources()) {
        s.memIdx = remap[static_cast<size_t>(s.memIdx)];
        if (s.memIdx >= 0)
            cone.addSource(std::move(s));
    }
    for (size_t u = 0; u < sim.units().size(); ++u) {
        if (!c.unit[u])
            continue;
        SimUnit unit = sim.units()[u];
        for (SimPort &p : unit.inputs)
            p.memIdx = remap[static_cast<size_t>(p.memIdx)];
        if (unit.outMemIdx >= 0)
            unit.outMemIdx = remap[static_cast<size_t>(unit.outMemIdx)];
        cone.addUnit(std::move(unit));
    }
    return cone;
}

/**
 * Whether the units outside the cone drain once everything they
 * depend on has finished: feed-forward in unit order (every writer of
 * a non-prefilled input comes earlier), outputs into sinks or
 * memories that never fill, and every non-prefilled input read with
 * cumulative readiness capped at no more than will ever arrive. Then,
 * with no landing in flight, the first unfinished unit always fires.
 */
bool
remainderIsDrainSafe(const CycleSim &sim, const Flows &f, const Cone &c)
{
    const auto &units = sim.units();
    std::vector<int64_t> lastWriter(sim.memories().size(), -1);
    for (size_t u = 0; u < units.size(); ++u) {
        if (!c.unit[u] && units[u].outMemIdx >= 0)
            lastWriter[static_cast<size_t>(units[u].outMemIdx)] =
                static_cast<int64_t>(u);
    }
    for (size_t r = 0; r < units.size(); ++r) {
        if (c.unit[r])
            continue;
        for (const SimPort &p : units[r].inputs) {
            const size_t m = static_cast<size_t>(p.memIdx);
            if (sim.memories()[m].prefilled)
                continue;
            if (!(p.expectedWords > 0.0 &&
                  f.inflow[m] < kExactWords &&
                  p.expectedWords <= static_cast<double>(f.inflow[m])))
                return false;
            if (lastWriter[m] >= static_cast<int64_t>(r))
                return false; // feedback
        }
        if (units[r].outMemIdx >= 0 &&
            canFill(sim, f, static_cast<size_t>(units[r].outMemIdx)))
            return false; // backpressure
    }
    return true;
}

/**
 * The cycle by which a source that is never blocked has pushed its
 * whole frame, over-estimated by one: it pushes floor(n * rate) words
 * in n cycles while its credit arithmetic is exact (a dyadic rate on
 * a grid coarse enough for the credit to stay below 2^52 quanta).
 * -1 when that exactness is not guaranteed.
 */
int64_t
sourceDrainBound(const SimSource &s)
{
    if (s.totalWords == 0)
        return 0;
    const double rate = s.wordsPerCycle;
    int q = 0;
    while (q <= 52 && std::ldexp(rate, q) != std::floor(std::ldexp(rate, q)))
        ++q;
    if (q > 52 || std::ldexp(rate + 1.0, q) >= 0x1p52)
        return -1;
    const double n =
        std::ceil(static_cast<double>(s.totalWords) / rate) + 1.0;
    return n < 0x1p62 ? static_cast<int64_t>(n) : -1;
}

/**
 * An upper bound on the full run's drain cycle, given that the cone
 * and every source are done by @p start: after that, every cycle
 * either lands a result, fires the first unfinished unit outside the
 * cone, or waits at most L - 1 cycles for an in-flight landing
 * (L = the largest latency of a unit that can still land one). The
 * events left are the outside units' fires and landings plus the cone
 * units' landings into memories outside the cone.
 */
int64_t
drainBound(const CycleSim &sim, const Cone &c, int64_t start)
{
    int64_t events = 0;
    int latency = 1;
    for (size_t u = 0; u < sim.units().size(); ++u) {
        const SimUnit &unit = sim.units()[u];
        const bool lands = unit.outMemIdx >= 0;
        if (!c.unit[u]) {
            events = satAdd(events, satMul(unit.totalFires, lands ? 2 : 1));
        } else if (lands &&
                   !c.mem[static_cast<size_t>(unit.outMemIdx)]) {
            events = satAdd(events, unit.totalFires);
        } else {
            continue;
        }
        latency = std::max(latency, unit.latency);
    }
    return satAdd(start, satMul(events, latency));
}

} // namespace

StallCheck
checkSourceStall(const CycleSim &sim, CycleSimMemo *memo,
                 int64_t max_cycles)
{
    auto simulate = [&](CycleSim &s) {
        return memo != nullptr ? memo->run(s, max_cycles)
                               : s.run(max_cycles);
    };
    StallCheck out;
    // The full topology answers for itself, throwing exactly as it
    // would on its own.
    auto runFull = [&] {
        CycleSim full = sim;
        const CycleSimResult r = simulate(full);
        out.route = StallRoute::FullTopology;
        out.sourceBlocked = r.sourceBlocked;
        out.sourceBlockedCycles = r.sourceBlockedCycles;
        out.stats += r.stats;
        return out;
    };

    if (sim.mode() == CycleSim::Mode::TickLoop)
        return runFull();

    const Flows f = flowsOf(sim);
    const Cone c = coneOf(sim, f);
    if (!remainderIsDrainSafe(sim, f, c))
        return runFull();

    // Sources outside the cone never block; the rest of the topology
    // can only finish after they have drained.
    int64_t start = 0;
    for (const SimSource &s : sim.sources()) {
        if (c.mem[static_cast<size_t>(s.memIdx)])
            continue;
        const int64_t t = sourceDrainBound(s);
        if (t < 0)
            return runFull();
        start = std::max(start, t);
    }

    if (!c.empty) {
        CycleSim cone = buildCone(sim, c);
        CycleSimResult r;
        try {
            r = simulate(cone);
        } catch (const ConfigError &) {
            // The cone's state at the budget is the full run's, so
            // the full run fails too; only it has the right text.
            return runFull();
        }
        out.route = StallRoute::Cone;
        out.sourceBlocked = r.sourceBlocked;
        out.sourceBlockedCycles = r.sourceBlockedCycles;
        out.stats = r.stats;
        start = std::max(start, r.cycles);
    }
    if (drainBound(sim, c, start) > max_cycles)
        return runFull();
    return out;
}

} // namespace camj

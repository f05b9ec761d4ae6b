#include "digital/stallcheck.h"

#include <algorithm>
#include <atomic>
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
    /** Unit ports reading the memory. */
    std::vector<int> readers;
};

void
flowsOf(const CycleSim &sim, Flows &f)
{
    f.inflow.assign(sim.memories().size(), 0);
    f.writers.assign(sim.memories().size(), 0);
    f.readers.assign(sim.memories().size(), 0);
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
    for (const SimUnit &u : sim.units()) {
        for (const SimPort &p : u.inputs)
            ++f.readers[static_cast<size_t>(p.memIdx)];
    }
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

void
coneOf(const CycleSim &sim, const Flows &f, Cone &c)
{
    const auto &units = sim.units();
    c.mem.assign(sim.memories().size(), 0);
    c.unit.assign(units.size(), 0);
    c.empty = true;
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
}

/** The cone as a topology of its own: cone memories, the sources
 *  writing them, and the cone units in order, their outputs into
 *  memories outside the cone turned into sinks. */
CycleSim
buildCone(const CycleSim &sim, const Cone &c)
{
    CycleSim cone;
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
remainderIsDrainSafe(const CycleSim &sim, const Flows &f, const Cone &c,
                     std::vector<int64_t> &lastWriter)
{
    const auto &units = sim.units();
    lastWriter.assign(sim.memories().size(), -1);
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

/** The fewest binary places that hold @p x exactly (x * 2^q is an
 *  integer), or 53 when more than 52 would be needed. */
int
binaryPlaces(double x)
{
    int q = 0;
    while (q <= 52 && std::ldexp(x, q) != std::floor(std::ldexp(x, q)))
        ++q;
    return q;
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
    const int q = binaryPlaces(rate);
    if (q > 52 || std::ldexp(rate + 1.0, q) >= 0x1p52)
        return -1;
    const double n =
        std::ceil(static_cast<double>(s.totalWords) / rate) + 1.0;
    return n < 0x1p62 ? static_cast<int64_t>(n) : -1;
}

/** Whether the tick loop's readiness and occupancy arithmetic on a
 *  port retiring @p retire words per fire stays exact up to @p words:
 *  every value is then a multiple of retire's lowest set bit (or of
 *  one word) and fewer than 2^52 of those. */
bool
exactUpTo(double retire, double words)
{
    const int q = binaryPlaces(retire);
    return q <= 52 && std::ldexp(words, q) < 0x1p52;
}

/** One link of a source-rooted chain: a chain memory and the one unit
 *  port reading it. A chain's first link is written by a source, every
 *  later link by the previous link's reader. */
struct ChainLink
{
    size_t mem = 0;
    const SimUnit *reader = nullptr;
    const SimPort *port = nullptr;
    /** The source writing mem on a chain's first link, else null. */
    const SimSource *source = nullptr;
};

/** chainsThrough()'s lists: its answer (links) and its scratch. */
struct ChainWalk
{
    std::vector<ChainLink> links;
    std::vector<const SimPort *> chainPort;
    std::vector<int> chainReader;
    std::vector<char> visited;
};

/**
 * The source-rooted chains through the units marked in @p on, link by
 * link in walk order into @p w.links; false when those units are no
 * such chains.
 *
 * A chain runs source -> m0 -> u0 -> m1 -> u1 -> ...: it starts at
 * each source whose memory is marked in @p through and continues
 * while the last unit's output memory is marked. Each marked unit has
 * one non-prefilled input (its chain port), read with cumulative
 * readiness on exactly the memory's inflow and needWords >=
 * retireWords; its other inputs are prefilled and read by no more
 * ports than they have. Walking the chains must visit every marked
 * unit exactly once, so each chain memory has one writer and one
 * reading port: a second writer would lead a walk to its reader
 * twice; a second reader, a prefilled chain memory or a unit on a
 * source-less cycle is never reached. The tick loop's readiness and
 * occupancy arithmetic on every chain port is exact (exactUpTo).
 *
 * Then, while words still arrive, readiness is occupancy >= need and
 * the occupancy clamp never fires, so a reader whose output is never
 * refused fires in every cycle its readiness holds.
 */
bool
chainsThrough(const CycleSim &sim, const Flows &f,
              const std::vector<char> &on,
              const std::vector<char> &through, ChainWalk &w)
{
    const auto &mems = sim.memories();
    const auto &units = sim.units();

    // Each marked unit's chain port, indexed by the memory it reads.
    std::vector<const SimPort *> &chainPort = w.chainPort;
    std::vector<int> &chainReader = w.chainReader;
    chainPort.assign(mems.size(), nullptr);
    chainReader.assign(mems.size(), -1);
    for (size_t u = 0; u < units.size(); ++u) {
        if (!on[u])
            continue;
        const SimPort *chain = nullptr;
        for (const SimPort &p : units[u].inputs) {
            const size_t m = static_cast<size_t>(p.memIdx);
            if (mems[m].prefilled) {
                if (f.readers[m] > mems[m].readPorts)
                    return false; // oversubscribed read ports
                continue;
            }
            if (chain != nullptr)
                return false; // a join
            chain = &p;
        }
        if (chain == nullptr)
            return false;
        const size_t m = static_cast<size_t>(chain->memIdx);
        const double inflow = static_cast<double>(f.inflow[m]);
        const double retired =
            static_cast<double>(units[u].totalFires) * chain->retireWords;
        if (chain->needWords < chain->retireWords ||
            !(chain->expectedWords > 0.0) ||
            chain->expectedWords != inflow ||
            !exactUpTo(chain->retireWords,
                       inflow + retired +
                           static_cast<double>(chain->needWords)))
            return false;
        chainPort[m] = chain;
        chainReader[m] = static_cast<int>(u);
    }

    std::vector<ChainLink> &links = w.links;
    std::vector<char> &visited = w.visited;
    links.clear();
    visited.assign(units.size(), 0);
    for (const SimSource &s : sim.sources()) {
        size_t m = static_cast<size_t>(s.memIdx);
        if (!through[m])
            continue;
        const SimSource *source = &s;
        for (;;) {
            const int r = chainReader[m];
            if (r < 0 || visited[static_cast<size_t>(r)])
                return false;
            visited[static_cast<size_t>(r)] = 1;
            const SimUnit &u = units[static_cast<size_t>(r)];
            links.push_back({m, &u, chainPort[m], source});
            source = nullptr;
            if (u.outMemIdx < 0 ||
                !through[static_cast<size_t>(u.outMemIdx)])
                break;
            m = static_cast<size_t>(u.outMemIdx);
        }
    }
    for (size_t u = 0; u < units.size(); ++u) {
        if (on[u] && !visited[u])
            return false;
    }
    return true;
}

/**
 * Whether chain memory @p l.mem never refuses its writer, which puts
 * at most @p burst <= retire words into it per cycle and needs
 * @p extra words of room beyond need + burst: a source's credit carry
 * (under one word), or a unit's latency x outWords (its landings in
 * flight plus the fire being checked). Its reader then holds
 * occupancy below need + burst after every arrival, and leaves
 * inflow - totalFires x retire words behind once done.
 */
bool
backlogFits(const CycleSim &sim, const Flows &f, const ChainLink &l,
            double burst, int64_t extra)
{
    const SimPort &p = *l.port;
    if (burst > p.retireWords)
        return false;
    const double need = static_cast<double>(p.needWords);
    const double peak = std::max(
        need + burst + static_cast<double>(extra),
        static_cast<double>(f.inflow[l.mem]) -
            static_cast<double>(l.reader->totalFires) * p.retireWords);
    return peak <=
           static_cast<double>(sim.memories()[l.mem].capacityWords);
}

/**
 * The cycle by which every cone source and cone unit is done, when the
 * cone is a set of source-rooted chains (chainsThrough) whose memories
 * provably never refuse a word; -1 otherwise (the cone is then
 * simulated).
 *
 * Each chain memory's occupancy stays below need + rate + 1 after a
 * push from a source of rate <= retire, and below need + outWords
 * after a landing from a unit with outWords <= retire (backlogFits).
 * When each peak fits the capacity, no source is ever held back (so
 * none blocks) and no writer is ever refused. Each unit then fires in
 * every cycle once its whole input has arrived, so its chain is done
 * by the source's drain bound plus totalFires + latency per unit.
 */
int64_t
boundedConeFinish(const CycleSim &sim, const Flows &f, const Cone &c,
                  ChainWalk &w)
{
    if (!chainsThrough(sim, f, c.unit, c.mem, w))
        return -1;
    int64_t finish = 0;
    int64_t done = 0;
    double burst = 0.0;
    int64_t extra = 0;
    for (const ChainLink &l : w.links) {
        if (l.source != nullptr) {
            done = sourceDrainBound(*l.source);
            if (done < 0)
                return -1;
            burst = l.source->wordsPerCycle;
            extra = 1;
        }
        if (!backlogFits(sim, f, l, burst, extra))
            return -1;
        const SimUnit &u = *l.reader;
        done = satAdd(done, satAdd(u.totalFires, u.latency));
        finish = std::max(finish, done);
        burst = static_cast<double>(u.outWords);
        extra = satMul(u.latency, u.outWords);
    }
    return finish;
}

/** The fewest cycles n >= 1 after which a source of @p rate words per
 *  cycle has been credited @p words (n x rate >= words). */
int64_t
cyclesToCredit(double rate, int64_t words)
{
    const double w = static_cast<double>(words);
    auto n = static_cast<int64_t>(std::ceil(w / rate));
    while (static_cast<double>(n) * rate < w)
        ++n;
    while (n > 1 && static_cast<double>(n - 1) * rate >= w)
        --n;
    return std::max<int64_t>(n, 1);
}

/**
 * The first cycle in which the reader of a source's chain memory can
 * fire, when it then fires in every cycle until done; -1 when that is
 * not proven. The source pushes floor(n x rate) words by cycle n - 1
 * while credit-limited, all of them when its memory holds the frame;
 * a memory that can fill instead caps it at what fits, which leaves
 * more than capacity - 1 words after the push.
 */
int64_t
sourceFedStart(const CycleSim &sim, const Flows &f, const ChainLink &l)
{
    const SimSource &s = *l.source;
    const SimPort &p = *l.port;
    const double rate = s.wordsPerCycle;
    const double retire = p.retireWords;
    const int64_t need = p.needWords;
    const int64_t fires = l.reader->totalFires;
    if (fires < 1 || rate < retire)
        return -1;
    const int64_t start =
        cyclesToCredit(rate, std::min(need, s.totalWords)) - 1;
    // Fire k waits for ceil(k x retire + need) words and finds
    // floor((start + 1 + k) x rate) while credit-limited. The margin
    // grows with k, so fire 1 decides, unless there is no fire 1, the
    // window covers the frame (every fire waits for all of it) or the
    // rate is integral (no fraction of a word is ever held back).
    const bool paced =
        fires <= 1 || need >= s.totalWords || rate == std::floor(rate) ||
        static_cast<double>(start + 2) * rate - static_cast<double>(need) >=
            retire + 1.0 - std::ldexp(1.0, -binaryPlaces(retire));
    if (!paced)
        return -1;
    // A memory that can fill stays ready above capacity - 1 >= need
    // words, but must be drained: the last fire waits for the frame.
    if (canFill(sim, f, l.mem) &&
        (sim.memories()[l.mem].capacityWords < need + 1 ||
         static_cast<double>(fires - 1) * retire +
                 static_cast<double>(need) <
             static_cast<double>(s.totalWords)))
        return -1;
    return start;
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

std::atomic<SimRoutes> g_routes{SimRoutes::Proven};

} // namespace

struct StallScratch::Lists
{
    Flows flows;
    Cone cone;
    ChainWalk chains;
    /** chainDrainCycle(): the memories its chains run through, and
     *  every unit marked. */
    std::vector<char> through;
    std::vector<char> everyUnit;
    /** remainderIsDrainSafe(): each memory's last writer outside the
     *  cone. */
    std::vector<int64_t> lastWriter;
};

StallScratch::StallScratch() : lists_(std::make_unique<Lists>()) {}
StallScratch::~StallScratch() = default;
StallScratch::StallScratch(StallScratch &&) noexcept = default;
StallScratch &StallScratch::operator=(StallScratch &&) noexcept = default;

SimRoutes
simRoutes()
{
    return g_routes.load(std::memory_order_relaxed);
}

void
setSimRoutes(SimRoutes routes)
{
    g_routes.store(routes, std::memory_order_relaxed);
}

StallCheck
checkSourceStall(const CycleSim &sim, StallScratch &scratch,
                 CycleSimMemo *memo, int64_t max_cycles)
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

    if (simRoutes() == SimRoutes::FullTopology)
        return runFull();

    StallScratch::Lists &lists = scratch.lists();
    const Flows &f = lists.flows;
    const Cone &c = lists.cone;
    flowsOf(sim, lists.flows);
    coneOf(sim, f, lists.cone);
    if (!remainderIsDrainSafe(sim, f, c, lists.lastWriter))
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
        // A cone of chains that provably never fill needs no run.
        const int64_t finish = boundedConeFinish(sim, f, c, lists.chains);
        if (finish >= 0 &&
            drainBound(sim, c, std::max(start, finish)) <= max_cycles) {
            out.route = StallRoute::Bounded;
            return out;
        }
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

std::optional<int64_t>
chainDrainCycle(const CycleSim &sim, StallScratch &scratch,
                int64_t max_cycles)
{
    if (simRoutes() == SimRoutes::FullTopology)
        return std::nullopt;
    const auto &mems = sim.memories();
    StallScratch::Lists &lists = scratch.lists();
    const Flows &f = lists.flows;
    flowsOf(sim, lists.flows);

    // Chains run through every memory a unit port streams from.
    std::vector<char> &through = lists.through;
    through.assign(mems.size(), 0);
    for (size_t m = 0; m < mems.size(); ++m)
        through[m] = !mems[m].prefilled && f.readers[m] > 0;
    lists.everyUnit.assign(sim.units().size(), 1);
    if (!chainsThrough(sim, f, lists.everyUnit, through, lists.chains))
        return std::nullopt;
    // Every other memory only takes words: it must never refuse one,
    // nor run out of write ports.
    for (size_t m = 0; m < mems.size(); ++m) {
        if (!through[m] &&
            (canFill(sim, f, m) || f.writers[m] > mems[m].writePorts))
            return std::nullopt;
    }

    // A source is done in the cycle after its last push, once credited
    // its frame; a source whose memory can fill is done by its reader's
    // last fire instead (sourceFedStart), which is no earlier.
    int64_t drain = 0;
    for (const SimSource &s : sim.sources()) {
        if (mems[static_cast<size_t>(s.memIdx)].prefilled ||
            !exactUpTo(s.wordsPerCycle,
                       static_cast<double>(s.totalWords) +
                           s.wordsPerCycle + 1.0))
            return std::nullopt;
        if (s.totalWords > 0)
            drain = std::max(drain,
                             cyclesToCredit(s.wordsPerCycle, s.totalWords));
    }

    // Walk each chain, unit by unit, from the first cycle its reader
    // can fire; it then fires in every cycle until done.
    int64_t start = 0;
    const SimUnit *writer = nullptr;
    for (const ChainLink &l : lists.chains.links) {
        const SimUnit &u = *l.reader;
        if (l.source != nullptr) {
            start = sourceFedStart(sim, f, l);
        } else {
            // Landings arrive outWords a cycle from the writer's
            // start + latency on, never later than fire k needs them
            // when outWords >= retire.
            const int64_t out = writer->outWords;
            const int64_t window =
                std::min(l.port->needWords, f.inflow[l.mem]);
            if (u.totalFires < 1 ||
                static_cast<double>(out) < l.port->retireWords ||
                (canFill(sim, f, l.mem) &&
                 !backlogFits(sim, f, l, static_cast<double>(out),
                              satMul(writer->latency, out))))
                return std::nullopt;
            start = satAdd(start,
                           writer->latency + (window + out - 1) / out - 1);
        }
        if (start < 0)
            return std::nullopt;
        const int64_t done = satAdd(
            start, satAdd(u.totalFires, u.outMemIdx >= 0 ? u.latency : 0));
        drain = std::max(drain, done);
        writer = &u;
    }
    if (drain > max_cycles)
        return std::nullopt;
    return drain;
}

} // namespace camj

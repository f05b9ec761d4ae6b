#include "digital/cyclesim.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/logging.h"

namespace camj
{

namespace
{

/** Snap a positive flow rate to 8 significant mantissa bits (at most
 *  0.2% relative error). Every credit/occupancy value the tick loop
 *  can reach is then a small multiple of one dyadic quantum, so the
 *  per-cycle double arithmetic is EXACT — no rounding ever — which is
 *  what lets the closed forms of digital/stallcheck.h reproduce the
 *  loop's decisions in arithmetic. It is a property of the model: the
 *  result bytes depend on the snapped rates. */
double
quantizeFlowRate(double x)
{
    if (!(x > 0.0) || !std::isfinite(x))
        return x;
    int e = 0;
    const double f = std::frexp(x, &e); // f in [0.5, 1)
    return std::ldexp(std::nearbyint(std::ldexp(f, 8)), e - 8);
}

} // namespace

int
CycleSim::addMemory(SimMemory mem)
{
    if (mem.name.empty())
        fatal(Rule::E002, "CycleSim: memory with empty name");
    if (mem.capacityWords <= 0)
        fatal(Rule::E013, "CycleSim: memory %s capacity must be positive",
              mem.name.c_str());
    if (mem.readPorts < 1 || mem.writePorts < 1)
        fatal(Rule::E013, "CycleSim: memory %s ports must be >= 1",
              mem.name.c_str());
    mems_.push_back(std::move(mem));
    return static_cast<int>(mems_.size()) - 1;
}

int
CycleSim::addSource(SimSource src)
{
    if (src.name.empty())
        fatal(Rule::E002, "CycleSim: source with empty name");
    if (src.totalWords < 0 || src.wordsPerCycle <= 0.0)
        fatal(Rule::E001,
              "CycleSim: source %s needs totalWords >= 0 and positive "
              "rate", src.name.c_str());
    if (src.memIdx < 0 || src.memIdx >= static_cast<int>(mems_.size()))
        fatal(Rule::E012, "CycleSim: source %s has invalid memory index %d",
              src.name.c_str(), src.memIdx);
    src.wordsPerCycle = quantizeFlowRate(src.wordsPerCycle);
    sources_.push_back(std::move(src));
    return static_cast<int>(sources_.size()) - 1;
}

int
CycleSim::addUnit(SimUnit unit)
{
    if (unit.name.empty())
        fatal(Rule::E002, "CycleSim: unit with empty name");
    if (unit.inputs.empty())
        fatal(Rule::E012,
              "CycleSim: unit %s has no inputs", unit.name.c_str());
    for (const auto &port : unit.inputs) {
        if (port.memIdx < 0 ||
            port.memIdx >= static_cast<int>(mems_.size()))
            fatal(Rule::E003, "CycleSim: unit %s has invalid input memory %d",
                  unit.name.c_str(), port.memIdx);
        if (port.needWords < 1 || port.readWords < 0 ||
            port.retireWords < 0.0)
            fatal(Rule::E017, "CycleSim: unit %s has invalid port parameters",
                  unit.name.c_str());
    }
    if (unit.outMemIdx >= static_cast<int>(mems_.size()))
        fatal(Rule::E003, "CycleSim: unit %s has invalid output memory %d",
              unit.name.c_str(), unit.outMemIdx);
    if (unit.outWords < 0 || unit.totalFires < 0 || unit.latency < 1)
        fatal(Rule::E017, "CycleSim: unit %s has invalid out/fires/latency",
              unit.name.c_str());
    for (auto &port : unit.inputs)
        port.retireWords = quantizeFlowRate(port.retireWords);
    units_.push_back(std::move(unit));
    return static_cast<int>(units_.size()) - 1;
}

void
CycleSim::setSourceRate(int idx, double words_per_cycle)
{
    if (idx < 0 || idx >= static_cast<int>(sources_.size()))
        fatal(Rule::E012,
              "CycleSim: setSourceRate: invalid source index %d", idx);
    if (words_per_cycle <= 0.0)
        fatal(Rule::E001, "CycleSim: source %s needs a positive rate",
              sources_[static_cast<size_t>(idx)].name.c_str());
    sources_[static_cast<size_t>(idx)].wordsPerCycle =
        quantizeFlowRate(words_per_cycle);
}

bool
sameCounters(const CycleSimResult &a, const CycleSimResult &b)
{
    return a.cycles == b.cycles &&
           a.unitBusyCycles == b.unitBusyCycles &&
           a.memReads == b.memReads && a.memWrites == b.memWrites &&
           a.sourceBlockedCycles == b.sourceBlockedCycles &&
           a.portConflictCycles == b.portConflictCycles &&
           a.sourceBlocked == b.sourceBlocked;
}

namespace
{

/** A unit's output in flight to its memory. */
struct Landing
{
    int64_t cycle;
    int memIdx;
    int64_t words;
};

/** The drain-failure state dump. It names no cycle, so a run that
 *  stops at its first idle cycle reports what the budget would. */
std::string
drainDiagnostics(const std::vector<SimSource> &sources,
                 const std::vector<SimUnit> &units,
                 const std::vector<SimMemory> &mems,
                 const std::vector<int64_t> &source_remaining,
                 const std::vector<int64_t> &fires_done,
                 const std::vector<double> &occupancy,
                 const std::vector<double> &arrived,
                 const std::deque<Landing> &landings)
{
    std::string state;
    for (size_t s = 0; s < sources.size(); ++s) {
        state += strprintf(" source %s: %lld left;",
                           sources[s].name.c_str(),
                           static_cast<long long>(source_remaining[s]));
    }
    for (size_t u = 0; u < units.size(); ++u) {
        state += strprintf(" unit %s: %lld/%lld fires;",
                           units[u].name.c_str(),
                           static_cast<long long>(fires_done[u]),
                           static_cast<long long>(
                               units[u].totalFires));
    }
    for (size_t m = 0; m < mems.size(); ++m) {
        state += strprintf(" mem %s: occ %.1f arrived %.1f;",
                           mems[m].name.c_str(), occupancy[m],
                           arrived[m]);
    }
    // The earliest-due landing, ties broken by insertion order.
    const Landing *oldest = nullptr;
    for (const Landing &l : landings) {
        if (oldest == nullptr || l.cycle < oldest->cycle)
            oldest = &l;
    }
    if (oldest != nullptr) {
        state += strprintf(" oldest landing: %lld word(s) -> mem %s "
                           "due cycle %lld;",
                           static_cast<long long>(oldest->words),
                           mems[static_cast<size_t>(oldest->memIdx)]
                               .name.c_str(),
                           static_cast<long long>(oldest->cycle));
    }
    if (!mems.empty()) {
        size_t worst = 0;
        double worst_ratio = -1.0;
        for (size_t m = 0; m < mems.size(); ++m) {
            const double ratio =
                occupancy[m] /
                static_cast<double>(mems[m].capacityWords);
            if (ratio > worst_ratio) {
                worst_ratio = ratio;
                worst = m;
            }
        }
        state += strprintf(" most backlogged mem %s: %.1f/%lld words",
                           mems[worst].name.c_str(), occupancy[worst],
                           static_cast<long long>(
                               mems[worst].capacityWords));
    }
    return state;
}

} // namespace

CycleSimResult
CycleSim::run(int64_t max_cycles)
{
    const size_t nm = mems_.size();
    const size_t nu = units_.size();
    const size_t ns = sources_.size();

    CycleSimResult res;
    res.unitBusyCycles.assign(nu, 0);
    res.memReads.assign(nm, 0);
    res.memWrites.assign(nm, 0);

    std::vector<double> occupancy(nm, 0.0);
    std::vector<double> arrived(nm, 0.0);
    std::vector<int64_t> reserved(nm, 0);
    std::vector<int> readTokens(nm, 0), writeTokens(nm, 0);
    std::vector<double> sourceCredit(ns, 0.0);
    std::vector<int64_t> sourceRemaining(ns);
    std::vector<int64_t> firesDone(nu, 0);
    std::deque<Landing> landings;

    for (size_t s = 0; s < ns; ++s)
        sourceRemaining[s] = sources_[s].totalWords;

    auto all_done = [&]() {
        for (size_t s = 0; s < ns; ++s) {
            if (sourceRemaining[s] > 0)
                return false;
        }
        for (size_t u = 0; u < nu; ++u) {
            if (firesDone[u] < units_[u].totalFires)
                return false;
        }
        return landings.empty();
    };
    // Words a source may push into non-prefilled memory m.
    auto free_words = [&](size_t m) {
        return std::max<int64_t>(
            0, static_cast<int64_t>(
                   static_cast<double>(mems_[m].capacityWords) -
                   occupancy[m]) -
                   reserved[m]);
    };
    // Every unfinished source faces a full memory. With nothing in
    // flight a prefilled memory shows its whole capacity free: its
    // occupancy never leaves 0.
    auto sources_stuck = [&]() {
        for (size_t s = 0; s < ns; ++s) {
            if (sourceRemaining[s] > 0 &&
                free_words(static_cast<size_t>(sources_[s].memIdx)) > 0)
                return false;
        }
        return true;
    };

    int64_t cycle = 0;
    for (; cycle < max_cycles; ++cycle) {
        if (all_done())
            break;

        for (size_t m = 0; m < nm; ++m) {
            readTokens[m] = mems_[m].readPorts;
            writeTokens[m] = mems_[m].writePorts;
        }
        // Whether anything landed, pushed or fired this cycle.
        bool moved = false;

        // 1. Land in-flight results, bounded by write ports.
        for (auto it = landings.begin(); it != landings.end();) {
            if (it->cycle > cycle) {
                ++it;
                continue;
            }
            int m = it->memIdx;
            if (writeTokens[m] <= 0) {
                // Defer to next cycle; the pipeline backs up.
                it->cycle = cycle + 1;
                ++res.portConflictCycles;
                ++it;
                continue;
            }
            --writeTokens[m];
            reserved[m] -= it->words;
            if (!mems_[m].prefilled)
                occupancy[m] += static_cast<double>(it->words);
            arrived[m] += static_cast<double>(it->words);
            res.memWrites[m] += it->words;
            it = landings.erase(it);
            moved = true;
        }

        // 2. Sources push pixels at their fixed rate. A blocked source
        //    is the fatal stall condition of Sec. 4.1: exposure cannot
        //    pause.
        for (size_t s = 0; s < ns; ++s) {
            if (sourceRemaining[s] == 0)
                continue;
            SimSource &src = sources_[s];
            sourceCredit[s] += src.wordsPerCycle;
            int64_t want = std::min<int64_t>(
                static_cast<int64_t>(sourceCredit[s]),
                sourceRemaining[s]);
            if (want == 0)
                continue;

            const size_t m = static_cast<size_t>(src.memIdx);
            const int64_t space = mems_[m].prefilled
                                      ? mems_[m].capacityWords
                                      : free_words(m);
            int64_t push = std::min(want, space);
            if (push > 0 && writeTokens[m] > 0) {
                --writeTokens[m];
                if (!mems_[m].prefilled)
                    occupancy[m] += static_cast<double>(push);
                arrived[m] += static_cast<double>(push);
                res.memWrites[m] += push;
                sourceRemaining[s] -= push;
                sourceCredit[s] -= static_cast<double>(push);
                moved = true;
            }
            // The exposure cannot pause: sustained backlog beyond a
            // small jitter slack means the buffer is too small or the
            // consumer too slow — the Sec. 4.1 stall condition.
            double slack = std::max(8.0, 4.0 * src.wordsPerCycle);
            if (sourceRemaining[s] > 0 && sourceCredit[s] > slack) {
                ++res.sourceBlockedCycles;
                res.sourceBlocked = true;
            }
        }

        // 3. Units fire when inputs, ports, and output space allow.
        for (size_t u = 0; u < nu; ++u) {
            SimUnit &unit = units_[u];
            if (firesDone[u] >= unit.totalFires)
                continue;

            bool data_ready = true;
            bool ports_ready = true;
            for (const auto &port : unit.inputs) {
                const size_t m = static_cast<size_t>(port.memIdx);
                const SimMemory &mem = mems_[m];
                if (!mem.prefilled) {
                    if (port.expectedWords > 0.0) {
                        // Cumulative-arrival readiness: fire k needs
                        // k * retire + window words to have arrived,
                        // capped at what will ever arrive (boundary
                        // windows re-read retained rows).
                        double need = std::min(
                            port.expectedWords,
                            static_cast<double>(firesDone[u]) *
                                    port.retireWords +
                                static_cast<double>(port.needWords));
                        if (arrived[m] + 1e-9 < need)
                            data_ready = false;
                    } else if (occupancy[m] <
                               static_cast<double>(port.needWords)) {
                        data_ready = false;
                    }
                }
                if (readTokens[m] <= 0)
                    ports_ready = false;
            }
            if (!data_ready)
                continue; // normal pipelining: wait for producer

            bool out_ok = true;
            if (unit.outMemIdx >= 0) {
                const size_t m = static_cast<size_t>(unit.outMemIdx);
                if (!mems_[m].prefilled &&
                    occupancy[m] +
                            static_cast<double>(reserved[m] +
                                                unit.outWords) >
                        static_cast<double>(mems_[m].capacityWords))
                    out_ok = false;
            }
            if (!ports_ready) {
                ++res.portConflictCycles;
                continue;
            }
            if (!out_ok)
                continue; // downstream backpressure

            for (const auto &port : unit.inputs) {
                const size_t m = static_cast<size_t>(port.memIdx);
                --readTokens[m];
                res.memReads[m] += port.readWords;
                if (!mems_[m].prefilled) {
                    // Boundary windows retire less than a full stride
                    // (they reuse rows still held in the buffer).
                    occupancy[m] = std::max(
                        0.0, occupancy[m] - port.retireWords);
                }
            }
            if (unit.outMemIdx >= 0) {
                reserved[static_cast<size_t>(unit.outMemIdx)] +=
                    unit.outWords;
                landings.push_back({cycle + unit.latency,
                                    unit.outMemIdx, unit.outWords});
            }
            ++firesDone[u];
            ++res.unitBusyCycles[u];
            moved = true;
        }

        // Nothing moved and nothing is in flight: only a source's
        // credit changes, and no source can spend it, so every later
        // cycle repeats this one. The budget's state is already here.
        // (The cycle that completes a frame always moves something.)
        if (!moved && landings.empty() && sources_stuck())
            break;
    }

    if (!all_done()) {
        const std::string state = drainDiagnostics(
            sources_, units_, mems_, sourceRemaining, firesDone,
            occupancy, arrived, landings);
        fatal(Rule::D001,
              "CycleSim: pipeline did not drain within %lld cycles "
              "(deadlock or unsatisfiable configuration):%s",
              static_cast<long long>(max_cycles), state.c_str());
    }

    res.cycles = cycle;
    res.stats.cyclesTicked = cycle;
    return res;
}

} // namespace camj

#include "digital/cyclesim.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <map>

#include "common/logging.h"

namespace camj
{

namespace
{

/** Snap a positive flow rate to 8 significant mantissa bits (at most
 *  0.2% relative error). Every credit/occupancy value the tick loop
 *  can reach is then a small multiple of one dyadic quantum, so the
 *  per-cycle double arithmetic is EXACT — no rounding ever — which is
 *  what lets the fast-forward engine prove that a verified period
 *  replays bit-identically when jumped in closed form. Applied
 *  identically in both engines (it is a property of the model, not of
 *  an engine), so results stay mode-independent. */
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
        fatal("CycleSim: memory with empty name");
    if (mem.capacityWords <= 0)
        fatal("CycleSim: memory %s capacity must be positive",
              mem.name.c_str());
    if (mem.readPorts < 1 || mem.writePorts < 1)
        fatal("CycleSim: memory %s ports must be >= 1",
              mem.name.c_str());
    mems_.push_back(std::move(mem));
    return static_cast<int>(mems_.size()) - 1;
}

int
CycleSim::addSource(SimSource src)
{
    if (src.name.empty())
        fatal("CycleSim: source with empty name");
    if (src.totalWords < 0 || src.wordsPerCycle <= 0.0)
        fatal("CycleSim: source %s needs totalWords >= 0 and positive "
              "rate", src.name.c_str());
    if (src.memIdx < 0 || src.memIdx >= static_cast<int>(mems_.size()))
        fatal("CycleSim: source %s has invalid memory index %d",
              src.name.c_str(), src.memIdx);
    src.wordsPerCycle = quantizeFlowRate(src.wordsPerCycle);
    sources_.push_back(std::move(src));
    return static_cast<int>(sources_.size()) - 1;
}

int
CycleSim::addUnit(SimUnit unit)
{
    if (unit.name.empty())
        fatal("CycleSim: unit with empty name");
    if (unit.inputs.empty())
        fatal("CycleSim: unit %s has no inputs", unit.name.c_str());
    for (const auto &port : unit.inputs) {
        if (port.memIdx < 0 ||
            port.memIdx >= static_cast<int>(mems_.size()))
            fatal("CycleSim: unit %s has invalid input memory %d",
                  unit.name.c_str(), port.memIdx);
        if (port.needWords < 1 || port.readWords < 0 ||
            port.retireWords < 0.0)
            fatal("CycleSim: unit %s has invalid port parameters",
                  unit.name.c_str());
    }
    if (unit.outMemIdx >= static_cast<int>(mems_.size()))
        fatal("CycleSim: unit %s has invalid output memory %d",
              unit.name.c_str(), unit.outMemIdx);
    if (unit.outWords < 0 || unit.totalFires < 0 || unit.latency < 1)
        fatal("CycleSim: unit %s has invalid out/fires/latency",
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
        fatal("CycleSim: setSourceRate: invalid source index %d", idx);
    if (words_per_cycle <= 0.0)
        fatal("CycleSim: source %s needs a positive rate",
              sources_[static_cast<size_t>(idx)].name.c_str());
    sources_[static_cast<size_t>(idx)].wordsPerCycle =
        quantizeFlowRate(words_per_cycle);
}

namespace
{

std::atomic<int> g_default_mode{
    static_cast<int>(CycleSim::Mode::FastForward)};

} // namespace

CycleSim::Mode
CycleSim::defaultMode()
{
    return static_cast<Mode>(
        g_default_mode.load(std::memory_order_relaxed));
}

void
CycleSim::setDefaultMode(Mode mode)
{
    g_default_mode.store(static_cast<int>(mode),
                         std::memory_order_relaxed);
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

/** The earliest-due in-flight landing (ties broken by insertion
 *  order), for the drain-failure diagnostics. */
struct OldestLanding
{
    bool present = false;
    int64_t dueCycle = 0;
    int memIdx = -1;
    int64_t words = 0;
};

/** The drain-failure state dump shared by both engines: the same
 *  final state must produce the same error text regardless of Mode
 *  (the differential suites compare thrown messages too). */
std::string
drainDiagnostics(const std::vector<SimSource> &sources,
                 const std::vector<SimUnit> &units,
                 const std::vector<SimMemory> &mems,
                 const std::vector<int64_t> &source_remaining,
                 const std::vector<int64_t> &fires_done,
                 const std::vector<double> &occupancy,
                 const std::vector<double> &arrived,
                 const OldestLanding &oldest)
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
    if (oldest.present) {
        state += strprintf(" oldest landing: %lld word(s) -> mem %s "
                           "due cycle %lld;",
                           static_cast<long long>(oldest.words),
                           mems[static_cast<size_t>(oldest.memIdx)]
                               .name.c_str(),
                           static_cast<long long>(oldest.dueCycle));
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
    if (mode() == Mode::TickLoop)
        return runTickLoop(max_cycles);
    return runFastForward(max_cycles);
}

// ------------------------------------------------- the reference loop
//
// The original cycle-at-a-time engine, kept compiled-in verbatim as
// the differential baseline: tests/cyclesim_diff_test.cc pins the
// fast-forward engine's counters bit-identical to this loop's.

CycleSimResult
CycleSim::runTickLoop(int64_t max_cycles)
{
    struct Landing
    {
        int64_t cycle;
        int memIdx;
        int64_t words;
    };

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

    int64_t cycle = 0;
    for (; cycle < max_cycles; ++cycle) {
        if (all_done())
            break;

        for (size_t m = 0; m < nm; ++m) {
            readTokens[m] = mems_[m].readPorts;
            writeTokens[m] = mems_[m].writePorts;
        }

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
            int64_t space = mems_[m].capacityWords;
            if (!mems_[m].prefilled) {
                space = std::max<int64_t>(
                    0, static_cast<int64_t>(
                           static_cast<double>(mems_[m].capacityWords) -
                           occupancy[m]) -
                           reserved[m]);
            }
            int64_t push = std::min(want, space);
            if (push > 0 && writeTokens[m] > 0) {
                --writeTokens[m];
                if (!mems_[m].prefilled)
                    occupancy[m] += static_cast<double>(push);
                arrived[m] += static_cast<double>(push);
                res.memWrites[m] += push;
                sourceRemaining[s] -= push;
                sourceCredit[s] -= static_cast<double>(push);
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
        }
    }

    if (!all_done()) {
        OldestLanding oldest;
        for (const Landing &l : landings) {
            if (!oldest.present || l.cycle < oldest.dueCycle) {
                oldest.present = true;
                oldest.dueCycle = l.cycle;
                oldest.memIdx = l.memIdx;
                oldest.words = l.words;
            }
        }
        const std::string state = drainDiagnostics(
            sources_, units_, mems_, sourceRemaining, firesDone,
            occupancy, arrived, oldest);
        fatal("CycleSim: pipeline did not drain within %lld cycles "
              "(deadlock or unsatisfiable configuration):%s",
              static_cast<long long>(max_cycles), state.c_str());
    }

    res.cycles = cycle;
    res.stats.cyclesTicked = cycle;
    return res;
}

// ---------------------------------------------- the fast-forward engine
//
// Same transaction semantics as the tick loop, restructured for
// O(events) instead of O(frame-cycles):
//
//   - Landings live in per-cycle buckets (insertion order inside a
//     bucket), so each cycle touches only the landings actually due
//     instead of scanning every in-flight entry. Write-port deferrals
//     merge into the next bucket by insertion sequence, reproducing
//     the reference deque's processing order exactly.
//   - all_done() is three maintained counters, not an O(ns+nu) scan.
//   - Steady phases are AFFINE-periodic, not state-identical: after a
//     transient, occupancy / credit / arrived / firesDone advance by a
//     fixed per-period delta while the discrete skeleton (reserved
//     words, drained/done flags, the in-flight landing pattern keyed
//     by relative cycle) repeats exactly. Because every flow rate is
//     dyadic (quantizeFlowRate), all of those deltas are EXACT in
//     double arithmetic, so a verified period replays bit-identically
//     any number of times.
//   - Detection: the discrete skeleton is fingerprinted each searched
//     cycle (Brent anchoring, O(1) per tick). A repeat at distance P
//     makes P a candidate (rounded up to a credit-aligned length when
//     P is at least an active source's credit period but not a
//     multiple of it); the engine then ticks TWO more periods,
//     checking the skeleton bitwise at both (hash collisions can only
//     waste the verification ticks), requiring the two per-period
//     deltas to match bitwise, and proving fl-replay exactness with
//     the certificates fl(S0+d)==S1 and fl(S1+d)==S2 per field.
//   - While verifying, every float comparison in the tick (source
//     credit truncation as far as it decides the push, stall slack,
//     buffer space truncation, occupancy clamp and readiness, output
//     backpressure, the cumulative-readiness cap branch and arrival
//     test) records its minimum margin-to-flip in each direction. The
//     jump length k is then the largest count of whole periods such
//     that (a) no margin is crossed by its per-period drift, (b) no
//     discrete event fires (a source draining, a unit reaching
//     totalFires, max_cycles), and (c) every affine double stays small
//     enough that the grid arithmetic remains exact. Within that bound
//     every decision in the jumped region provably repeats the
//     verified period's, so counters scale by k and state advances by
//     k*delta in closed form — bit-identical to having ticked. Any
//     mismatch or zero bound just falls back to ticking.

CycleSimResult
CycleSim::runFastForward(int64_t max_cycles)
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

    struct FFLanding
    {
        int64_t seq;
        int memIdx;
        int64_t words;
    };
    std::map<int64_t, std::vector<FFLanding>> buckets;
    int64_t landingCount = 0;
    int64_t nextSeq = 0;

    int64_t activeSources = 0;
    for (size_t s = 0; s < ns; ++s) {
        sourceRemaining[s] = sources_[s].totalWords;
        if (sourceRemaining[s] > 0)
            ++activeSources;
    }
    int64_t pendingUnits = 0;
    for (size_t u = 0; u < nu; ++u) {
        if (units_[u].totalFires > 0)
            ++pendingUnits;
    }

    auto all_done = [&] {
        return activeSources == 0 && pendingUnits == 0 &&
               landingCount == 0;
    };

    // Cumulative-readiness ports: the only decisions that read the
    // ABSOLUTE arrived/firesDone accumulators. Their arrival-minus-
    // retired slack goes into the fingerprint, and the verification
    // period records their decision margins for the jump bound.
    struct SlackRef
    {
        size_t u, p, m;
    };
    std::vector<SlackRef> slackRefs;
    std::vector<std::vector<int>> guardIdx(nu);
    for (size_t u = 0; u < nu; ++u) {
        guardIdx[u].assign(units_[u].inputs.size(), -1);
        for (size_t p = 0; p < units_[u].inputs.size(); ++p) {
            const SimPort &port = units_[u].inputs[p];
            const size_t m = static_cast<size_t>(port.memIdx);
            if (port.expectedWords > 0.0 && !mems_[m].prefilled) {
                guardIdx[u][p] = static_cast<int>(slackRefs.size());
                slackRefs.push_back({u, p, m});
            }
        }
    }

    // The dyadic grid: every rate and retire is m * 2^-q for some
    // q <= qgrid (quantizeFlowRate guarantees it for any sane rate),
    // so every occupancy/credit value the loop reaches is an integer
    // multiple of 2^-qgrid and double arithmetic on them is exact as
    // long as magnitudes stay below 2^(51 - qgrid). If any rate is
    // off-grid (absurdly tiny), detection is disabled and the engine
    // degrades to plain ticking.
    const auto gridExpOf = [](double v) -> int {
        if (v == 0.0)
            return 0;
        const double a = std::fabs(v);
        for (int q = 0; q <= 48; ++q) {
            const double s = std::ldexp(a, q);
            if (s == std::floor(s))
                return q;
        }
        return -1;
    };
    int qgrid = 0;
    bool detectEnabled = true;
    // Each source's dyadic credit period 2^q (its rate is m * 2^-q
    // with m odd): its credit pattern repeats every 2^q cycles.
    std::vector<int64_t> creditPeriod(ns, 1);
    for (size_t s = 0; s < ns; ++s) {
        const int q = gridExpOf(sources_[s].wordsPerCycle);
        if (q < 0) {
            detectEnabled = false;
        } else {
            qgrid = std::max(qgrid, q);
            creditPeriod[s] = int64_t{1} << std::min(q, 30);
        }
    }
    for (const SimUnit &unit : units_) {
        for (const SimPort &port : unit.inputs) {
            const int q = gridExpOf(port.retireWords);
            if (q < 0)
                detectEnabled = false;
            else
                qgrid = std::max(qgrid, q);
        }
    }
    const double magLimit = std::ldexp(1.0, 51 - qgrid);

    constexpr double kInf = std::numeric_limits<double>::infinity();
    // Minimum distance to flip a float decision, per drift direction:
    // `up` is how much the driving value may rise, `down` how much it
    // may fall, before some comparison taken during the verification
    // window changes its outcome.
    struct Flip
    {
        double up = kInf;
        double down = kInf;
    };
    const auto flipUp = [](Flip &f, double margin) {
        if (margin < f.up)
            f.up = margin;
    };
    const auto flipDown = [](Flip &f, double margin) {
        if (margin < f.down)
            f.down = margin;
    };
    struct Guards
    {
        // Per source (driving value: sourceCredit).
        std::vector<double> maxCredit;
        std::vector<Flip> creditInt; //!< int64 truncation boundaries
        std::vector<Flip> blocked;   //!< stall-slack comparison
        std::vector<double> creditAbsMax;
        // Per memory (driving value: occupancy).
        std::vector<Flip> spaceInt; //!< int64(cap - occ) boundaries
        std::vector<Flip> clampF;   //!< occ - retire >= 0 at fires
        std::vector<uint8_t> clampSeen;
        std::vector<Flip> occReady; //!< occ vs needWords readiness
        std::vector<Flip> outOk;    //!< occ + reserved + out vs cap
        std::vector<double> occAbsMax; //!< incl. derived temporaries
        std::vector<double> arrivedAbsMax;
        // Per cumulative-readiness port (slackRefs order).
        std::vector<Flip> capBranch; //!< x vs expectedWords branch
        std::vector<Flip> readyCap;  //!< arrival test while capped
        std::vector<Flip> readyLin;  //!< arrival test while x < cap
        std::vector<double> xAbsMax;

        void reset(size_t ns, size_t nm, size_t np)
        {
            maxCredit.assign(ns, 0.0);
            creditInt.assign(ns, Flip{});
            blocked.assign(ns, Flip{});
            creditAbsMax.assign(ns, 0.0);
            spaceInt.assign(nm, Flip{});
            clampF.assign(nm, Flip{});
            clampSeen.assign(nm, 0);
            occReady.assign(nm, Flip{});
            outOk.assign(nm, Flip{});
            occAbsMax.assign(nm, 0.0);
            arrivedAbsMax.assign(nm, 0.0);
            capBranch.assign(np, Flip{});
            readyCap.assign(np, Flip{});
            readyLin.assign(np, Flip{});
            xAbsMax.assign(np, 0.0);
        }
    };
    Guards guards;

    // One simulated cycle, semantically identical to the reference
    // loop; @p guard non-null while a candidate period is verified.
    auto tick = [&](int64_t cycle, Guards *guard) {
        for (size_t m = 0; m < nm; ++m) {
            readTokens[m] = mems_[m].readPorts;
            writeTokens[m] = mems_[m].writePorts;
        }

        // 1. Land in-flight results, bounded by write ports.
        while (!buckets.empty() && buckets.begin()->first <= cycle) {
            auto node = buckets.extract(buckets.begin());
            std::vector<FFLanding> &due = node.mapped();
            std::vector<FFLanding> deferred;
            for (const FFLanding &l : due) {
                const size_t m = static_cast<size_t>(l.memIdx);
                if (writeTokens[m] <= 0) {
                    // Defer to next cycle; the pipeline backs up.
                    ++res.portConflictCycles;
                    deferred.push_back(l);
                    continue;
                }
                --writeTokens[m];
                reserved[m] -= l.words;
                if (!mems_[m].prefilled)
                    occupancy[m] += static_cast<double>(l.words);
                arrived[m] += static_cast<double>(l.words);
                res.memWrites[m] += l.words;
                --landingCount;
                if (guard != nullptr) {
                    if (occupancy[m] > guard->occAbsMax[m])
                        guard->occAbsMax[m] = occupancy[m];
                    if (arrived[m] > guard->arrivedAbsMax[m])
                        guard->arrivedAbsMax[m] = arrived[m];
                }
            }
            if (!deferred.empty()) {
                std::vector<FFLanding> &next = buckets[cycle + 1];
                if (next.empty()) {
                    next = std::move(deferred);
                } else {
                    // Keep the bucket in insertion-sequence order:
                    // that is the reference deque's relative order.
                    std::vector<FFLanding> merged;
                    merged.reserve(next.size() + deferred.size());
                    std::merge(
                        deferred.begin(), deferred.end(),
                        next.begin(), next.end(),
                        std::back_inserter(merged),
                        [](const FFLanding &a, const FFLanding &b) {
                            return a.seq < b.seq;
                        });
                    next = std::move(merged);
                }
            }
        }

        // 2. Sources push pixels at their fixed rate (Sec. 4.1).
        for (size_t s = 0; s < ns; ++s) {
            if (sourceRemaining[s] == 0)
                continue;
            const SimSource &src = sources_[s];
            sourceCredit[s] += src.wordsPerCycle;
            if (guard != nullptr) {
                const double c = sourceCredit[s]; // always >= 0
                if (c > guard->maxCredit[s])
                    guard->maxCredit[s] = c;
                if (c > guard->creditAbsMax[s])
                    guard->creditAbsMax[s] = c;
            }
            // want truncates credit to int64. When the memory takes
            // all of want, the push flips at the integer boundaries
            // around the credit. When it takes less (it is full or out
            // of write ports), every larger want pushes the same, so
            // only the credit falling to what was taken matters —
            // which lets a blocked source, whose credit only grows, be
            // jumped.
            auto creditFlips = [&](int64_t taken, int64_t wanted) {
                if (guard == nullptr)
                    return;
                const double c = sourceCredit[s];
                if (taken < wanted) {
                    flipDown(guard->creditInt[s],
                             c - static_cast<double>(taken + 1));
                    return;
                }
                const double fl = std::floor(c);
                flipUp(guard->creditInt[s], fl + 1.0 - c);
                flipDown(guard->creditInt[s], c - fl);
            };
            int64_t want = std::min<int64_t>(
                static_cast<int64_t>(sourceCredit[s]),
                sourceRemaining[s]);
            if (want == 0) {
                creditFlips(0, 0);
                continue;
            }

            const size_t m = static_cast<size_t>(src.memIdx);
            int64_t space = mems_[m].capacityWords;
            if (!mems_[m].prefilled) {
                const double vd =
                    static_cast<double>(mems_[m].capacityWords) -
                    occupancy[m];
                if (guard != nullptr) {
                    // space truncates (cap - occ): record the int64
                    // boundaries, in occupancy-drift terms (occ up
                    // drives vd down and vice versa).
                    const double tr = std::trunc(vd);
                    flipUp(guard->spaceInt[m],
                           vd >= 0.0 ? vd - tr : vd - (tr - 1.0));
                    flipDown(guard->spaceInt[m],
                             vd >= 0.0 ? tr + 1.0 - vd : tr - vd);
                    if (std::fabs(vd) > guard->occAbsMax[m])
                        guard->occAbsMax[m] = std::fabs(vd);
                }
                space = std::max<int64_t>(
                    0, static_cast<int64_t>(vd) - reserved[m]);
            }
            int64_t push = std::min(want, space);
            const bool pushes = push > 0 && writeTokens[m] > 0;
            creditFlips(pushes ? push : 0, want);
            if (pushes) {
                --writeTokens[m];
                if (!mems_[m].prefilled)
                    occupancy[m] += static_cast<double>(push);
                arrived[m] += static_cast<double>(push);
                res.memWrites[m] += push;
                sourceRemaining[s] -= push;
                if (sourceRemaining[s] == 0)
                    --activeSources;
                sourceCredit[s] -= static_cast<double>(push);
                if (guard != nullptr) {
                    if (occupancy[m] > guard->occAbsMax[m])
                        guard->occAbsMax[m] = occupancy[m];
                    if (arrived[m] > guard->arrivedAbsMax[m])
                        guard->arrivedAbsMax[m] = arrived[m];
                }
            }
            double slack = std::max(8.0, 4.0 * src.wordsPerCycle);
            if (sourceRemaining[s] > 0) {
                if (guard != nullptr) {
                    const double c = sourceCredit[s];
                    if (c > slack)
                        flipDown(guard->blocked[s], c - slack);
                    else
                        flipUp(guard->blocked[s], slack - c);
                }
                if (sourceCredit[s] > slack) {
                    ++res.sourceBlockedCycles;
                    res.sourceBlocked = true;
                }
            }
        }

        // 3. Units fire when inputs, ports, and output space allow.
        for (size_t u = 0; u < nu; ++u) {
            const SimUnit &unit = units_[u];
            if (firesDone[u] >= unit.totalFires)
                continue;

            bool data_ready = true;
            bool ports_ready = true;
            for (size_t p = 0; p < unit.inputs.size(); ++p) {
                const SimPort &port = unit.inputs[p];
                const size_t m = static_cast<size_t>(port.memIdx);
                const SimMemory &mem = mems_[m];
                if (!mem.prefilled) {
                    if (port.expectedWords > 0.0) {
                        const double x =
                            static_cast<double>(firesDone[u]) *
                                port.retireWords +
                            static_cast<double>(port.needWords);
                        const double need =
                            std::min(port.expectedWords, x);
                        const bool ready = !(arrived[m] + 1e-9 < need);
                        if (!ready)
                            data_ready = false;
                        if (guard != nullptr) {
                            const size_t g = static_cast<size_t>(
                                guardIdx[u][p]);
                            const double a = arrived[m] + 1e-9;
                            if (std::fabs(x) > guard->xAbsMax[g])
                                guard->xAbsMax[g] = std::fabs(x);
                            if (x < port.expectedWords) {
                                // Linear regime: need == x drifts with
                                // firesDone; pin the branch and the
                                // arrival test against it.
                                flipUp(guard->capBranch[g],
                                       port.expectedWords - x);
                                if (ready)
                                    flipDown(guard->readyLin[g],
                                             a - x);
                                else
                                    flipUp(guard->readyLin[g], x - a);
                            } else {
                                // Capped regime: need is the constant
                                // expectedWords.
                                flipDown(guard->capBranch[g],
                                         x - port.expectedWords);
                                if (ready)
                                    flipDown(guard->readyCap[g],
                                             a - port.expectedWords);
                                else
                                    flipUp(guard->readyCap[g],
                                           port.expectedWords - a);
                            }
                        }
                    } else {
                        const double needw =
                            static_cast<double>(port.needWords);
                        if (occupancy[m] < needw)
                            data_ready = false;
                        if (guard != nullptr) {
                            if (occupancy[m] < needw)
                                flipUp(guard->occReady[m],
                                       needw - occupancy[m]);
                            else
                                flipDown(guard->occReady[m],
                                         occupancy[m] - needw);
                        }
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
                if (!mems_[m].prefilled) {
                    const double fill =
                        occupancy[m] +
                        static_cast<double>(reserved[m] +
                                            unit.outWords);
                    const double cap = static_cast<double>(
                        mems_[m].capacityWords);
                    if (fill > cap)
                        out_ok = false;
                    if (guard != nullptr) {
                        if (std::fabs(fill) > guard->occAbsMax[m])
                            guard->occAbsMax[m] = std::fabs(fill);
                        if (fill > cap)
                            flipDown(guard->outOk[m], fill - cap);
                        else
                            flipUp(guard->outOk[m], cap - fill);
                    }
                }
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
                    if (guard != nullptr) {
                        if (occupancy[m] - port.retireWords < 0.0)
                            guard->clampSeen[m] = 1;
                        else
                            flipDown(guard->clampF[m],
                                     occupancy[m] -
                                         port.retireWords);
                    }
                    occupancy[m] = std::max(
                        0.0, occupancy[m] - port.retireWords);
                }
            }
            if (unit.outMemIdx >= 0) {
                reserved[static_cast<size_t>(unit.outMemIdx)] +=
                    unit.outWords;
                buckets[cycle + unit.latency].push_back(
                    {nextSeq++, unit.outMemIdx, unit.outWords});
                ++landingCount;
            }
            ++firesDone[u];
            if (firesDone[u] >= unit.totalFires)
                --pendingUnits;
            ++res.unitBusyCycles[u];
        }
    };

    // ---- fingerprinting and the affine period machinery ----

    auto mix = [](uint64_t h, uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        return h * 0x100000001b3ull;
    };

    // Only the exact-repeat skeleton is hashed. The affine fields
    // (occupancy, credit, arrived, firesDone) drift every period, so
    // their bits never recur; repetition of the decisions they feed
    // is established by the delta verification and margin guards
    // instead of by the fingerprint.
    auto fingerprint = [&](int64_t now) {
        uint64_t h = 1469598103934665603ull;
        for (size_t m = 0; m < nm; ++m)
            h = mix(h, static_cast<uint64_t>(reserved[m]));
        for (size_t s = 0; s < ns; ++s)
            h = mix(h, sourceRemaining[s] == 0 ? 1u : 0u);
        for (size_t u = 0; u < nu; ++u)
            h = mix(h, firesDone[u] >= units_[u].totalFires ? 1u : 0u);
        for (const auto &kv : buckets) {
            h = mix(h, static_cast<uint64_t>(kv.first - now));
            for (const FFLanding &l : kv.second) {
                h = mix(h, static_cast<uint64_t>(l.memIdx));
                h = mix(h, static_cast<uint64_t>(l.words));
            }
        }
        return h;
    };

    struct Snap
    {
        // The exact-repeat skeleton.
        std::vector<int64_t> reservedWords;
        std::vector<uint8_t> drained, done;
        std::vector<int64_t> landRel, landMem, landWords;
        // The affine fields and counters.
        std::vector<double> occ, credit, arrivedW;
        std::vector<int64_t> remaining, fires, busy, reads, writes;
        int64_t blockedC = 0, conflictC = 0;
    };
    auto capture = [&](int64_t now, Snap &r) {
        r.reservedWords = reserved;
        r.drained.resize(ns);
        for (size_t s = 0; s < ns; ++s)
            r.drained[s] = sourceRemaining[s] == 0 ? 1 : 0;
        r.done.resize(nu);
        for (size_t u = 0; u < nu; ++u)
            r.done[u] = firesDone[u] >= units_[u].totalFires ? 1 : 0;
        r.landRel.clear();
        r.landMem.clear();
        r.landWords.clear();
        for (const auto &kv : buckets) {
            for (const FFLanding &l : kv.second) {
                r.landRel.push_back(kv.first - now);
                r.landMem.push_back(l.memIdx);
                r.landWords.push_back(l.words);
            }
        }
        r.occ = occupancy;
        r.credit = sourceCredit;
        r.arrivedW = arrived;
        r.remaining = sourceRemaining;
        r.fires = firesDone;
        r.busy = res.unitBusyCycles;
        r.reads = res.memReads;
        r.writes = res.memWrites;
        r.blockedC = res.sourceBlockedCycles;
        r.conflictC = res.portConflictCycles;
    };
    auto sameSkeleton = [](const Snap &a, const Snap &b) {
        return a.reservedWords == b.reservedWords &&
               a.drained == b.drained && a.done == b.done &&
               a.landRel == b.landRel && a.landMem == b.landMem &&
               a.landWords == b.landWords;
    };

    struct Delta
    {
        std::vector<double> occ, credit;
        std::vector<int64_t> arrivedW, remaining, fires, busy, reads,
            writes;
        int64_t blockedC = 0, conflictC = 0;
    };
    // Per-period delta; false when arrived moved by a non-integer
    // amount (it holds exact word counts, so that would mean the
    // candidate is not a real period).
    auto deltaOf = [&](const Snap &a, const Snap &b,
                       Delta &d) -> bool {
        d.occ.resize(nm);
        d.credit.resize(ns);
        d.arrivedW.resize(nm);
        d.remaining.resize(ns);
        d.fires.resize(nu);
        d.busy.resize(nu);
        d.reads.resize(nm);
        d.writes.resize(nm);
        for (size_t m = 0; m < nm; ++m) {
            d.occ[m] = b.occ[m] - a.occ[m];
            const double da = b.arrivedW[m] - a.arrivedW[m];
            if (da != std::floor(da) || std::fabs(da) >= 0x1p53)
                return false;
            d.arrivedW[m] = static_cast<int64_t>(da);
            d.reads[m] = b.reads[m] - a.reads[m];
            d.writes[m] = b.writes[m] - a.writes[m];
        }
        for (size_t s = 0; s < ns; ++s) {
            d.credit[s] = b.credit[s] - a.credit[s];
            d.remaining[s] = b.remaining[s] - a.remaining[s];
        }
        for (size_t u = 0; u < nu; ++u) {
            d.fires[u] = b.fires[u] - a.fires[u];
            d.busy[u] = b.busy[u] - a.busy[u];
        }
        d.blockedC = b.blockedC - a.blockedC;
        d.conflictC = b.conflictC - a.conflictC;
        return true;
    };
    auto bitsEq = [](const std::vector<double> &a,
                     const std::vector<double> &b) {
        return a.size() == b.size() &&
               (a.empty() ||
                std::memcmp(a.data(), b.data(),
                            a.size() * sizeof(double)) == 0);
    };
    auto sameDelta = [&](const Delta &a, const Delta &b) {
        return bitsEq(a.occ, b.occ) && bitsEq(a.credit, b.credit) &&
               a.arrivedW == b.arrivedW &&
               a.remaining == b.remaining && a.fires == b.fires &&
               a.busy == b.busy && a.reads == b.reads &&
               a.writes == b.writes && a.blockedC == b.blockedC &&
               a.conflictC == b.conflictC;
    };
    // fl-replay certificates: adding the delta must reproduce the
    // later snapshots exactly, twice — the witness that the affine
    // advance is free of rounding and can be scaled by any k.
    auto replays = [&](const Snap &a, const Snap &b, const Snap &c,
                       const Delta &d) -> bool {
        for (size_t m = 0; m < nm; ++m) {
            if (a.occ[m] + d.occ[m] != b.occ[m] ||
                b.occ[m] + d.occ[m] != c.occ[m])
                return false;
            const double da = static_cast<double>(d.arrivedW[m]);
            if (a.arrivedW[m] + da != b.arrivedW[m] ||
                b.arrivedW[m] + da != c.arrivedW[m])
                return false;
        }
        for (size_t s = 0; s < ns; ++s) {
            if (a.credit[s] + d.credit[s] != b.credit[s] ||
                b.credit[s] + d.credit[s] != c.credit[s])
                return false;
        }
        return true;
    };

    // Largest k with strict margin room for a decision driven by an
    // affine value drifting @p drift per period (@p eps absorbs the
    // off-grid rounding of sites that add the 1e-9 epsilon).
    auto flipBound = [&](int64_t &k, const Flip &f, double drift,
                         double eps) {
        if (k <= 0 || drift == 0.0)
            return;
        const double raw = drift > 0.0 ? f.up : f.down;
        if (raw == kInf)
            return;
        const double margin = raw - eps;
        if (!(margin > 0.0)) {
            k = 0;
            return;
        }
        const double step = std::fabs(drift);
        if (static_cast<double>(k) * step >= margin) {
            int64_t kk = static_cast<int64_t>(margin / step);
            while (kk > 0 &&
                   static_cast<double>(kk) * step >= margin)
                --kk;
            k = std::min(k, kk);
        }
    };
    // Largest k keeping an affine double small enough that the
    // dyadic-grid arithmetic stays exact through the jumped region.
    auto magBound = [&](int64_t &k, double absMax, double drift) {
        if (k <= 0 || drift == 0.0)
            return;
        const double room = magLimit - absMax;
        if (!(room > 0.0)) {
            k = 0;
            return;
        }
        const double step = std::fabs(drift);
        if (static_cast<double>(k) * step >= room) {
            int64_t kk = static_cast<int64_t>(room / step);
            while (kk > 0 && static_cast<double>(kk) * step >= room)
                --kk;
            k = std::min(k, kk);
        }
    };

    // How many whole periods the verified pattern may be replayed in
    // closed form: bounded by every discrete event (a source
    // draining, a unit reaching totalFires, max_cycles), by every
    // recorded comparison margin against its per-period drift, and by
    // the exact-arithmetic magnitude limits.
    auto jumpBound = [&](int64_t now, int64_t period,
                         const Delta &d) -> int64_t {
        int64_t k = (max_cycles - now) / period;
        for (size_t s = 0; s < ns; ++s) {
            if (sourceRemaining[s] == 0) {
                if (d.remaining[s] != 0)
                    return 0; // defensive: drained can't move
                continue;
            }
            const int64_t drem = -d.remaining[s];
            if (drem < 0)
                return 0; // defensive: remaining never grows
            if (drem == 0)
                continue;
            // Keep remaining above any credit the period attains, so
            // want = min(credit, remaining) keeps truncating on the
            // credit side all the way through the jump.
            const int64_t margin =
                static_cast<int64_t>(guards.maxCredit[s]) + drem + 2;
            const int64_t room = sourceRemaining[s] - margin;
            if (room < drem)
                return 0;
            k = std::min(k, room / drem);
        }
        for (size_t u = 0; u < nu; ++u) {
            const int64_t df = d.fires[u];
            if (df < 0)
                return 0;
            if (df == 0)
                continue;
            // Stay strictly below totalFires at every point of the
            // jumped region: the unit must remain active throughout.
            const int64_t room =
                units_[u].totalFires - firesDone[u] - 1;
            if (room < df)
                return 0;
            k = std::min(k, room / df);
        }
        for (size_t s = 0; s < ns && k > 0; ++s) {
            flipBound(k, guards.creditInt[s], d.credit[s], 0.0);
            flipBound(k, guards.blocked[s], d.credit[s], 0.0);
            magBound(k, guards.creditAbsMax[s], d.credit[s]);
        }
        for (size_t m = 0; m < nm && k > 0; ++m) {
            if (guards.clampSeen[m] && d.occ[m] != 0.0)
                return 0; // a clamping flow must not drift
            flipBound(k, guards.spaceInt[m], d.occ[m], 0.0);
            flipBound(k, guards.clampF[m], d.occ[m], 0.0);
            flipBound(k, guards.occReady[m], d.occ[m], 0.0);
            flipBound(k, guards.outOk[m], d.occ[m], 0.0);
            magBound(k, guards.occAbsMax[m], d.occ[m]);
            magBound(k, guards.arrivedAbsMax[m],
                     static_cast<double>(d.arrivedW[m]));
        }
        for (size_t i = 0; i < slackRefs.size() && k > 0; ++i) {
            const SlackRef &r = slackRefs[i];
            const SimPort &port = units_[r.u].inputs[r.p];
            const double dx =
                static_cast<double>(d.fires[r.u]) * port.retireWords;
            const double da =
                static_cast<double>(d.arrivedW[r.m]);
            // The 1e-9 readiness epsilon is off the dyadic grid, so
            // the arrival test's drift model is exact only up to its
            // rounding; a small noise floor absorbs that.
            const double noise =
                std::max(1e-7, port.expectedWords * 0x1p-48);
            flipBound(k, guards.capBranch[i], dx, 0.0);
            flipBound(k, guards.readyCap[i], da, noise);
            flipBound(k, guards.readyLin[i], da - dx, noise);
            magBound(k, guards.xAbsMax[i], dx);
        }
        return std::max<int64_t>(k, 0);
    };

    auto applyJump = [&](int64_t k, int64_t period, const Delta &d) {
        for (size_t m = 0; m < nm; ++m) {
            res.memReads[m] += k * d.reads[m];
            res.memWrites[m] += k * d.writes[m];
            occupancy[m] += static_cast<double>(k) * d.occ[m];
            // arrived holds exact integer word counts: scaling the
            // integer delta reproduces the ticked sum bit-for-bit.
            arrived[m] += static_cast<double>(k * d.arrivedW[m]);
        }
        for (size_t u = 0; u < nu; ++u) {
            res.unitBusyCycles[u] += k * d.busy[u];
            firesDone[u] += k * d.fires[u];
        }
        for (size_t s = 0; s < ns; ++s) {
            sourceRemaining[s] += k * d.remaining[s];
            sourceCredit[s] += static_cast<double>(k) * d.credit[s];
        }
        res.sourceBlockedCycles += k * d.blockedC;
        res.portConflictCycles += k * d.conflictC;
        if (!buckets.empty()) {
            std::map<int64_t, std::vector<FFLanding>> shifted;
            for (auto &kv : buckets)
                shifted.emplace(kv.first + k * period,
                                std::move(kv.second));
            buckets = std::move(shifted);
        }
    };

    // ---- the main loop: tick, fingerprint, verify, jump ----
    //
    // Period search is Brent's cycle-finding over the fingerprint
    // stream: one anchor fingerprint, re-anchored at power-of-two
    // distances, O(1) work per ticked cycle. A fingerprint equal to
    // the anchor makes (cycle - anchorCycle) a candidate period; the
    // candidate is then verified over two further ticked periods
    // (skeleton bitwise, deltas equal, replay certificates). A failed
    // candidate doubles the minimum accepted distance, so constant
    // skeletons are swept through periods 1, 2, 4, ... — exactly the
    // power-of-two pattern dyadic rates produce. A successful jump
    // leaves a hint so the engine can re-verify and jump again at the
    // very next occurrence without searching.

    enum class Phase
    {
        Search,
        Verify1,
        Verify2,
    };
    Phase phase = Phase::Search;
    uint64_t anchorFp = 0;
    int64_t anchorCycle = -1;
    int64_t anchorPower = 1;
    auto resetSearch = [&] {
        anchorCycle = -1;
        anchorPower = 1;
    };

    constexpr int64_t kMaxPeriod = int64_t{1} << 17;
    // Credit alignment. While a source is active, a candidate at least
    // as long as its credit period Q but not a multiple of it is only
    // a near-period: its credit drifts by a nonzero multiple of 1/Q per
    // period, and a window of 2Q cycles has seen every credit phase,
    // so jumpBound() would refuse it at every occurrence. Such a
    // candidate is rounded up to the credit-aligned length Q * 2^j
    // that covers it (0 when that exceeds kMaxPeriod: no candidate).
    auto creditAligned = [&](int64_t p) {
        int64_t q = 1;
        for (size_t s = 0; s < ns; ++s) {
            if (sourceRemaining[s] > 0)
                q = std::max(q, creditPeriod[s]);
        }
        if (p < q || p % q == 0)
            return p;
        while (q < p)
            q *= 2;
        return q <= kMaxPeriod ? q : 0;
    };
    int64_t minCand = 1;
    int64_t hintPeriod = 0, hintAnchor = -1;
    int64_t prevActive = activeSources, prevPending = pendingUnits;

    Snap snap0, snap1, snap2;
    Delta d1, d2;
    int64_t period = 0;
    int64_t verifyAt = -1;

    int64_t cycle = 0;
    while (cycle < max_cycles) {
        if (all_done())
            break;
        tick(cycle, phase == Phase::Search ? nullptr : &guards);
        ++res.stats.cyclesTicked;
        ++cycle;
        if (!detectEnabled)
            continue;

        if (phase != Phase::Search) {
            if (cycle < verifyAt)
                continue;
            if (phase == Phase::Verify1) {
                capture(cycle, snap1);
                if (sameSkeleton(snap0, snap1) &&
                    deltaOf(snap0, snap1, d1)) {
                    phase = Phase::Verify2;
                    verifyAt = cycle + period;
                } else {
                    ++res.stats.fallbacks;
                    minCand = std::max(minCand, 2 * period);
                    hintPeriod = 0;
                    phase = Phase::Search;
                    resetSearch();
                }
                continue;
            }
            capture(cycle, snap2);
            const bool verified = sameSkeleton(snap1, snap2) &&
                                  deltaOf(snap1, snap2, d2) &&
                                  sameDelta(d1, d2) &&
                                  replays(snap0, snap1, snap2, d1);
            int64_t k = 0;
            if (verified)
                k = jumpBound(cycle, period, d1);
            if (k > 0) {
                applyJump(k, period, d1);
                cycle += k * period;
                res.stats.cyclesFastForwarded += k * period;
                ++res.stats.periodsDetected;
                minCand = 1;
                hintPeriod = period;
                hintAnchor = cycle;
            } else if (verified) {
                // A genuine period, but a discrete event is too close
                // to clear even one more full period: tick up to it
                // and retry at the next occurrence.
                ++res.stats.fallbacks;
                hintPeriod = period;
                hintAnchor = cycle;
            } else {
                ++res.stats.fallbacks;
                minCand = std::max(minCand, 2 * period);
                hintPeriod = 0;
            }
            phase = Phase::Search;
            resetSearch();
            continue;
        }

        // Regime boundaries (a source draining, a unit completing)
        // start a new steady phase: reopen short candidates.
        if (activeSources != prevActive ||
            pendingUnits != prevPending) {
            prevActive = activeSources;
            prevPending = pendingUnits;
            minCand = 1;
            resetSearch();
        }

        int64_t cand = 0;
        const uint64_t h = fingerprint(cycle);
        if (anchorCycle >= 0 && h == anchorFp) {
            const int64_t dist = cycle - anchorCycle;
            if (dist >= minCand && dist <= kMaxPeriod)
                cand = dist;
        }
        if (cand == 0 && hintPeriod > 0 &&
            cycle - hintAnchor >= hintPeriod) {
            cand = hintPeriod;
            hintPeriod = 0;
        }
        cand = creditAligned(cand);
        if (cand > 0) {
            period = cand;
            capture(cycle, snap0);
            guards.reset(ns, nm, slackRefs.size());
            verifyAt = cycle + period;
            phase = Phase::Verify1;
            resetSearch();
            continue;
        }
        if (anchorCycle < 0) {
            anchorFp = h;
            anchorCycle = cycle;
        } else if (cycle - anchorCycle >= anchorPower) {
            // Brent re-anchor: doubling the window keeps detection
            // within ~2 * (transient + period) ticks of phase start.
            anchorFp = h;
            anchorCycle = cycle;
            anchorPower *= 2;
        }
    }

    if (!all_done()) {
        OldestLanding oldest;
        if (!buckets.empty()) {
            const auto &front = *buckets.begin();
            oldest.present = true;
            oldest.dueCycle = front.first;
            oldest.memIdx = front.second.front().memIdx;
            oldest.words = front.second.front().words;
        }
        const std::string state = drainDiagnostics(
            sources_, units_, mems_, sourceRemaining, firesDone,
            occupancy, arrived, oldest);
        fatal("CycleSim: pipeline did not drain within %lld cycles "
              "(deadlock or unsatisfiable configuration):%s",
              static_cast<long long>(max_cycles), state.c_str());
    }

    res.cycles = cycle;
    return res;
}

} // namespace camj

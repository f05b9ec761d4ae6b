/**
 * @file
 * The Sec. 4.1 stall check: does an ADC source ever block on a full
 * memory at its true production rate? The Timing stage asks nothing
 * else of its second cycle-sim pass, so the check simulates only what
 * can influence a source, the sources' CONE OF INFLUENCE:
 *
 *   - start from every source memory that can block its source (a
 *     memory smaller than its total inflow, or one written by anything
 *     besides that one source);
 *   - add every unit that reads or writes a cone memory, and every
 *     input memory of a cone unit;
 *   - add a cone unit's output memory only if it can fill (it is not
 *     prefilled and holds fewer words than its total inflow).
 *
 * Outputs into memories outside the cone become sinks. Every decision
 * that touches a cone memory (occupancy, reservations, read and write
 * ports, landings) then plays out in the cone exactly as in the full
 * run, so the verdict and the blocked-cycle count are exact by
 * construction. When no source can block, the cone is empty and
 * nothing is simulated.
 *
 * The full run has one more observable: the "did not drain"
 * ConfigError, whose text dumps the whole topology. The cone's answer
 * therefore stands only when the rest of the topology provably drains
 * within the cycle budget (feed-forward in unit order, no
 * backpressure, cumulative readiness that the final arrivals satisfy,
 * and a closed-form drain bound); otherwise, or when the cone itself
 * fails to drain, the full topology runs. The choice depends on the
 * topology alone. Mode::TickLoop is the reference engine and always
 * runs the full topology. docs/performance.md ("Pass B: the stall
 * cone") gives the argument in full; tests/cyclesim_diff_test.cc pins
 * every answer against a full-topology tick-loop run.
 */

#ifndef CAMJ_DIGITAL_STALLCHECK_H
#define CAMJ_DIGITAL_STALLCHECK_H

#include <cstddef>
#include <cstdint>

#include "digital/cyclesim.h"

namespace camj
{

/** How checkSourceStall() reached its answer. */
enum class StallRoute
{
    /** Proven stall-free and drain-safe; nothing simulated. */
    StallFree,
    /** Simulated on the sources' cone of influence. */
    Cone,
    /** Simulated on the full topology (fallback, or the reference
     *  engine). */
    FullTopology,
};

/** Stall checks counted by route. */
struct StallRouteCounts
{
    size_t stallFree = 0;
    size_t cone = 0;
    size_t fullTopology = 0;

    void add(StallRoute route)
    {
        switch (route) {
          case StallRoute::StallFree:
            ++stallFree;
            break;
          case StallRoute::Cone:
            ++cone;
            break;
          case StallRoute::FullTopology:
            ++fullTopology;
            break;
        }
    }

    StallRouteCounts &operator+=(const StallRouteCounts &o)
    {
        stallFree += o.stallFree;
        cone += o.cone;
        fullTopology += o.fullTopology;
        return *this;
    }

    bool operator==(const StallRouteCounts &) const = default;
};

/** The answer to one stall check. */
struct StallCheck
{
    /** True if any source was ever blocked (CycleSimResult's). */
    bool sourceBlocked = false;
    /** Cycles a source was blocked (CycleSimResult's). */
    int64_t sourceBlockedCycles = 0;
    StallRoute route = StallRoute::StallFree;
    /** What was simulated to answer (cone plus any fallback run);
     *  zero for StallFree and for memo hits. */
    CycleSimStats stats;
};

/**
 * The stall verdict of @p sim: sourceBlocked and sourceBlockedCycles
 * equal to those of sim.run(max_cycles), and the same ConfigError
 * when that run would not drain. Simulations go through @p memo when
 * one is given, keyed by the topology actually simulated.
 *
 * @throws ConfigError exactly when sim.run(max_cycles) would, with
 *         the same text.
 */
StallCheck checkSourceStall(const CycleSim &sim,
                            CycleSimMemo *memo = nullptr,
                            int64_t max_cycles =
                                CycleSim::kDefaultMaxCycles);

} // namespace camj

#endif // CAMJ_DIGITAL_STALLCHECK_H

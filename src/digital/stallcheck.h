/**
 * @file
 * The Sec. 4.1 stall check, and pass A's drain cycle where it has a
 * closed form. The stall check asks: does an ADC source ever block
 * on a full memory at its true production rate? The Timing stage
 * asks nothing else of its second cycle-sim pass, so the check
 * simulates only what can influence a source, the sources' CONE OF
 * INFLUENCE:
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
 * Most feasible cones need no run either. When the cone is a set of
 * chains rooted at sources (each memory one writer and one reader,
 * each unit one non-prefilled input read with cumulative readiness),
 * the engine's fire rule bounds every chain memory's backlog in closed
 * form, in the style of a network-calculus backlog bound: a reader
 * whose output is never refused fires in every cycle its window is
 * present, so a memory fed at most `retire` words per cycle never
 * holds more than about need + one cycle's burst. When every bound
 * fits its memory, the source is never held back, and the answer is
 * "not blocked, 0 cycles" without simulating (StallRoute::Bounded).
 *
 * The full run has one more observable: the "did not drain"
 * ConfigError, whose text dumps the whole topology. The cone's answer
 * therefore stands only when the rest of the topology provably drains
 * within the cycle budget (feed-forward in unit order, no
 * backpressure, cumulative readiness that the final arrivals satisfy,
 * and a closed-form drain bound, which for a bounded cone starts from
 * a closed-form finish bound of the chains); otherwise, or when the
 * cone itself fails to drain, the full topology runs. The choice
 * depends on the topology alone, unless the process-wide switch
 * (setSimRoutes) asks for the full topology every time.
 *
 * Pass A needs more than a verdict: its drain cycle is the digital
 * latency, and it must be exact. The same chain walk gives it in
 * closed form (chainDrainCycle) when every unit lies on a
 * source-rooted chain and provably fires in every cycle from its
 * first ready cycle: a source keeps pace with its reader's retire
 * (in a memory that can fill, one holding window + 1 words that the
 * reader's last fire drains), and a unit lands at least its reader's
 * retire per cycle into a memory that never refuses it. Each start
 * then follows from the one before it, land -> push -> fire, and the
 * drain cycle is the latest start + totalFires (+ latency when the
 * unit lands in a memory). Anything else, and every topology under
 * SimRoutes::FullTopology, simulates.
 *
 * docs/performance.md ("Pass B: the stall cone", "Pass B: the
 * backlog bound" and "Pass A: the closed-form drain") gives the
 * arguments in full; tests/cyclesim_diff_test.cc pins every answer
 * against a full-topology tick-loop run.
 */

#ifndef CAMJ_DIGITAL_STALLCHECK_H
#define CAMJ_DIGITAL_STALLCHECK_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "digital/cyclesim.h"

namespace camj
{

/** The routes chainDrainCycle() and checkSourceStall() may take. */
enum class SimRoutes
{
    /** Closed forms and the stall cone wherever they are proven (the
     *  default). */
    Proven,
    /** Only a run of the full topology: the reference that the
     *  differential suites evaluate whole pipelines with. */
    FullTopology,
};

/** The process-wide route switch (SimRoutes::Proven unless changed).
 *  Thread-safe. */
SimRoutes simRoutes();
void setSimRoutes(SimRoutes routes);

/** How checkSourceStall() reached its answer. */
enum class StallRoute
{
    /** Proven stall-free and drain-safe; nothing simulated. */
    StallFree,
    /** The cone's backlog bounds fit its memories: proven not
     *  blocked and drain-safe; nothing simulated. */
    Bounded,
    /** Simulated on the sources' cone of influence. */
    Cone,
    /** Simulated on the full topology (fallback, or
     *  SimRoutes::FullTopology). */
    FullTopology,
};

/** Stall checks counted by route. */
struct StallRouteCounts
{
    size_t stallFree = 0;
    size_t bounded = 0;
    size_t cone = 0;
    size_t fullTopology = 0;

    void add(StallRoute route)
    {
        switch (route) {
          case StallRoute::StallFree:
            ++stallFree;
            break;
          case StallRoute::Bounded:
            ++bounded;
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
        bounded += o.bounded;
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
     *  zero for StallFree, Bounded and memo hits. */
    CycleSimStats stats;
};

/**
 * Working storage for checkSourceStall() and chainDrainCycle(): the
 * per-memory and per-unit lists an answer walks. A caller that asks
 * about one topology after another (a sweep worker's pipeline) keeps
 * one, so that an answer allocates nothing once the lists have grown.
 * Nothing carries over from one call to the next.
 */
class StallScratch
{
  public:
    StallScratch();
    ~StallScratch();
    StallScratch(StallScratch &&) noexcept;
    StallScratch &operator=(StallScratch &&) noexcept;

    /** The lists (digital/stallcheck.cc). */
    struct Lists;
    Lists &lists() { return *lists_; }

  private:
    std::unique_ptr<Lists> lists_;
};

/**
 * The stall verdict of @p sim: sourceBlocked and sourceBlockedCycles
 * equal to those of sim.run(max_cycles), and the same ConfigError
 * when that run would not drain. The topology is walked in
 * @p scratch's lists. Simulations go through @p memo when one is
 * given, keyed by the topology actually simulated.
 *
 * @throws ConfigError exactly when sim.run(max_cycles) would, with
 *         the same text.
 */
StallCheck checkSourceStall(const CycleSim &sim, StallScratch &scratch,
                            CycleSimMemo *memo = nullptr,
                            int64_t max_cycles =
                                CycleSim::kDefaultMaxCycles);

/**
 * Pass A's drain cycle without a run: exactly sim.run(max_cycles)
 * .cycles when every unit of @p sim lies on a source-rooted chain
 * that provably fires in every cycle from its first ready cycle, and
 * that cycle is within @p max_cycles; nullopt otherwise, and always
 * under SimRoutes::FullTopology. The topology is walked in
 * @p scratch's lists.
 */
std::optional<int64_t> chainDrainCycle(const CycleSim &sim,
                                       StallScratch &scratch,
                                       int64_t max_cycles =
                                           CycleSim::kDefaultMaxCycles);

} // namespace camj

#endif // CAMJ_DIGITAL_STALLCHECK_H

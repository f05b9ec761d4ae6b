/**
 * @file
 * Cycle-level simulation of the digital part of the CIS pipeline
 * (Sec. 3.3 / Sec. 4.1). The simulator serves two purposes in the
 * paper's methodology:
 *
 *   1. Stall checking. The CIS pipeline must never stall, because
 *      pixels are produced at a constant rate by the exposure; CamJ
 *      flags the three stall scenarios (producer data not ready is
 *      normal pipelining; a full memory blocking the source and
 *      insufficient memory ports are design errors).
 *   2. Digital latency estimation (T_D), which the delay model uses
 *      to derive the analog time budget T_A = (T_FR - T_D) / N.
 *
 * The Timing stage asks the stall question through checkSourceStall()
 * (digital/stallcheck.h), which simulates only the part of a topology
 * that can influence its sources, and nothing when no source can
 * block or when that part's backlog provably never fills a memory.
 * The CycleSim stage asks chainDrainCycle() (same header) for the
 * latency first: a topology of source-rooted chains that provably
 * fire in every cycle drains in closed form, and only the rest is
 * simulated.
 *
 * The model is transaction-level: every unit moves its declared
 * per-cycle shapes; pipeline depth delays the landing of outputs.
 * run() ticks one cycle at a time, and it is the reference every
 * closed form is pinned against (tests/cyclesim_diff_test.cc).
 *
 * Rates are snapped to 8 significant binary digits on entry
 * (addSource / addUnit / setSourceRate; at most 0.2% relative error),
 * which makes every per-cycle double operation exact. The closed
 * forms of digital/stallcheck.h rely on that exactness, and the
 * result bytes depend on the snapped rates.
 */

#ifndef CAMJ_DIGITAL_CYCLESIM_H
#define CAMJ_DIGITAL_CYCLESIM_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace camj
{

/** A buffer between pipeline actors. */
struct SimMemory
{
    std::string name;
    int64_t capacityWords = 0;
    int readPorts = 1;
    int writePorts = 1;
    /**
     * Holds a full previous frame at frame start (e.g. the frame
     * buffer feeding frame subtraction): reads always succeed and do
     * not deplete occupancy; writes overwrite in place.
     */
    bool prefilled = false;

    bool operator==(const SimMemory &) const = default;
};

/** A data producer at the analog/digital boundary (ADC output). */
struct SimSource
{
    std::string name;
    /** Words pushed per frame. */
    int64_t totalWords = 0;
    /** Production rate [words/cycle]; may be fractional (a slow ADC
     *  produces less than one word per digital cycle). Snapped to 8
     *  significant binary digits by addSource/setSourceRate. */
    double wordsPerCycle = 1.0;
    /** Destination memory index. */
    int memIdx = -1;

    bool operator==(const SimSource &) const = default;
};

/** One input port of a compute unit. */
struct SimPort
{
    /** Memory the port reads from. */
    int memIdx = -1;
    /** Words that must be present before the unit can fire (stencil
     *  window for line-buffered units). */
    int64_t needWords = 1;
    /** Words actually read per fire (memory read accesses). */
    int64_t readWords = 1;
    /** Words retired (freed) per fire; fractional for sliding-window
     *  reuse where a fire advances by less than it reads. Snapped to
     *  8 significant binary digits by addUnit. */
    double retireWords = 1.0;
    /**
     * Total words that will arrive in the source memory over the
     * frame. When positive, fire-readiness uses cumulative arrivals
     * (fire k waits for min(expected, k * retire + need) words),
     * which models boundary stencils re-reading retained rows; when
     * zero, readiness falls back to current occupancy.
     */
    double expectedWords = 0.0;

    bool operator==(const SimPort &) const = default;
};

/** A pipelined compute unit. */
struct SimUnit
{
    std::string name;
    std::vector<SimPort> inputs;
    /** Destination memory; -1 = sink (leaves the digital pipeline). */
    int outMemIdx = -1;
    /** Words produced per fire. */
    int64_t outWords = 1;
    /** Fires needed to process one frame. */
    int64_t totalFires = 0;
    /** Pipeline depth in cycles. */
    int latency = 1;

    bool operator==(const SimUnit &) const = default;
};

/**
 * How much one run() simulated — diagnostics, not semantics: a memo
 * hit or a closed-form answer reports none, so they are EXCLUDED from
 * sameCounters() and from every serialized result format.
 */
struct CycleSimStats
{
    /** Cycles simulated. */
    int64_t cyclesTicked = 0;
    /** Always 0: every cycle is ticked. perfbench/ reads it. */
    int64_t cyclesFastForwarded = 0;
    /** Always 0, likewise. */
    int64_t fallbacks = 0;

    CycleSimStats &operator+=(const CycleSimStats &o)
    {
        cyclesTicked += o.cyclesTicked;
        cyclesFastForwarded += o.cyclesFastForwarded;
        fallbacks += o.fallbacks;
        return *this;
    }

    bool operator==(const CycleSimStats &) const = default;
};

/** Result of simulating one frame. */
struct CycleSimResult
{
    /** Cycles from first input to last output landing. */
    int64_t cycles = 0;
    /** Active (firing) cycles per unit, by unit index. */
    std::vector<int64_t> unitBusyCycles;
    /** Word reads per memory, by memory index. */
    std::vector<int64_t> memReads;
    /** Word writes per memory, by memory index. */
    std::vector<int64_t> memWrites;
    /** Cycles a source was blocked by a full memory (fatal stall). */
    int64_t sourceBlockedCycles = 0;
    /** Cycles lost to read/write port conflicts. */
    int64_t portConflictCycles = 0;
    /** True if any source was ever blocked. */
    bool sourceBlocked = false;
    /** Execution diagnostics (see CycleSimStats). */
    CycleSimStats stats;
};

/** Every semantic field of @p a equals @p b's (stats excluded: they
 *  describe how the answer was reached, not what the pipeline did). */
bool sameCounters(const CycleSimResult &a, const CycleSimResult &b);

/**
 * The pipeline simulator. Build with addMemory/addSource/addUnit
 * (units in topological order), then run(). run() does not consume
 * the topology: the same instance can run() repeatedly (the Timing
 * stage's pass B reuses pass A's topology with setSourceRate()
 * instead of rebuilding it, and hands it to checkSourceStall()).
 */
class CycleSim
{
  public:
    /** @return memory index. @throws ConfigError on bad params. */
    int addMemory(SimMemory mem);

    /** @return source index. @throws ConfigError on bad params. */
    int addSource(SimSource src);

    /** @return unit index. @throws ConfigError on bad params. */
    int addUnit(SimUnit unit);

    /** Re-point source @p idx at a new production rate, keeping the
     *  rest of the topology (pass A -> pass B reuse).
     *  @throws ConfigError on a bad index or rate. */
    void setSourceRate(int idx, double words_per_cycle);

    /** The topologies are identical (memories, sources, units). */
    bool sameTopology(const CycleSim &o) const
    {
        return mems_ == o.mems_ && sources_ == o.sources_ &&
               units_ == o.units_;
    }

    /** A 64-bit hash of the topology: sameTopology(o) implies
     *  topologyHash() == o.topologyHash(). */
    uint64_t topologyHash() const;

    /** The topology as built (rates and retires already snapped). */
    const std::vector<SimMemory> &memories() const { return mems_; }
    const std::vector<SimSource> &sources() const { return sources_; }
    const std::vector<SimUnit> &units() const { return units_; }

    /** run()'s default deadlock guard [cycles]. */
    static constexpr int64_t kDefaultMaxCycles = 500000000;

    /**
     * Simulate one frame, one cycle at a time.
     *
     * A run that cannot drain ends at its first idle cycle: nothing
     * lands, no source pushes, no unit fires, no landing is in flight,
     * and every unfinished source writes a full memory that is not
     * prefilled. Every later cycle repeats that one, so the run throws
     * there what it would throw at @p max_cycles, in the same words.
     *
     * @param max_cycles Deadlock guard.
     * @throws ConfigError if the pipeline does not drain within
     *         @p max_cycles (deadlock or unsatisfiable dependencies).
     */
    CycleSimResult run(int64_t max_cycles = kDefaultMaxCycles);

  private:
    std::vector<SimMemory> mems_;
    std::vector<SimSource> sources_;
    std::vector<SimUnit> units_;
};

/** Lookup traffic of a CycleSimMemo. */
struct CycleSimMemoStats
{
    /** Lookups answered from the memo (nothing simulated). */
    size_t hits = 0;
    /** Lookups that ran the simulation. */
    size_t misses = 0;

    CycleSimMemoStats &operator+=(const CycleSimMemoStats &o)
    {
        hits += o.hits;
        misses += o.misses;
        return *this;
    }
};

/**
 * A bounded memo of CycleSim::run() results, keyed by the built
 * topology (memories, sources with their quantized rates, units).
 * Neighboring points of a grid sweep rebuild the same few topologies
 * over and over: pass A's topology ignores the frame rate, axes such
 * as a memory's node or duty cycle never reach the cycle model at
 * all, and the pass-B stall check (digital/stallcheck.h) looks up the
 * sub-topology it actually simulates, so a frame-rate axis only
 * misses where that sub-topology exists. Only runs that are simulated
 * reach it: a pass A answered in closed form and a stall check
 * answered statically never do.
 *
 * A lookup hashes the topology first and verifies every candidate
 * with sameTopology(), so a hash collision costs one comparison,
 * never a wrong result. A hit returns the stored result with zero
 * CycleSimStats, because no cycle was simulated; a run that throws
 * stores nothing. A stored run that drained after more cycles than a
 * lookup's budget does not answer that lookup. At most kCapacity
 * entries are kept, least recently used evicted first.
 *
 * Not thread-safe: each sweep worker owns one, inside its
 * IncrementalEvaluator.
 */
class CycleSimMemo
{
  public:
    static constexpr size_t kCapacity = 16;

    /** @p sim.run(max_cycles), or the stored result of an identical
     *  earlier run. @throws ConfigError as CycleSim::run() does. */
    CycleSimResult run(CycleSim &sim,
                       int64_t max_cycles = CycleSim::kDefaultMaxCycles);

    /** Entries held (never more than kCapacity). */
    size_t size() const { return entries_.size(); }

    const CycleSimMemoStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        uint64_t hash = 0;
        CycleSim sim;
        CycleSimResult result;
    };
    /** Most recently used first. */
    std::vector<Entry> entries_;
    CycleSimMemoStats stats_;
};

} // namespace camj

#endif // CAMJ_DIGITAL_CYCLESIM_H

/**
 * @file
 * The staged evaluation core. Design::simulate() used to be one
 * monolithic function running the full Sec. 4 methodology; this file
 * splits it into an ordered pipeline of stages, each persisting its
 * outputs in an EvalPipeline:
 *
 *   Map      — DAG validation, mapping analysis (which stages run on
 *              which hardware), topological order, prefilled memories.
 *   Analog   — per-array operation counts via the dataflow-volume
 *              rule, plus the analog-chain checks (domains,
 *              throughput, ADC boundary).
 *   Digital  — digital pipeline analytics: unit fire counts and
 *              energies, per-memory word traffic, cross-layer
 *              communication volumes.
 *   CycleSim — cycle-level simulation pass A (consumer-paced source):
 *              the digital latency in cycles, in closed form when
 *              every unit lies on a source-rooted chain
 *              (chainDrainCycle in digital/stallcheck.h), else
 *              simulated by CycleSim::run(), the tick loop.
 *   Timing   — delay estimation (T_A from the frame budget) and the
 *              pass-B stall check at the true ADC rate, answered on
 *              the source's cone of influence (digital/stallcheck.h):
 *              statically when the ADC memory can never fill or when
 *              the cone's backlog bounds fit its memories, else by
 *              simulating only the units and memories that can reach
 *              the source, with a full-topology fallback whenever the
 *              rest of the pipeline is not provably drain-safe.
 *              Under setSimRoutes(SimRoutes::FullTopology) both
 *              passes simulate the full topology: the reference the
 *              differential suites compare against.
 *   Energy   — energy assembly into the EnergyReport.
 *
 * Running all stages in order is exactly the old simulate() —
 * Design::simulate() is now a thin wrapper over runAll(). The split
 * lets a caller time each stage (runAllTimed) and count the stages a
 * point entered before a check failed. Cycle-level simulation is the
 * one costly step left, where a topology needs one, so that is where
 * reuse pays: runAll() takes an optional CycleSimMemo
 * (digital/cyclesim.h) and consults it for a pass A that is not
 * answered in closed form and for whatever topology the stall check
 * simulates.
 *
 * A sweep worker keeps one pipeline for all its points
 * (explore/incremental.h): every stage overwrites its outputs in
 * storage the previous point left (nested lists cleared, not
 * replaced; pass A's CycleSim refilled; the stall check's lists kept
 * in a StallScratch), and the report leaves by move. The Timing
 * stage's two dynamic verdicts, D002 and D001, are what such a sweep
 * meets on a point that misses its frame rate, so runToVerdict()
 * returns them as values instead of unwinding them; runAll() and
 * runAllTimed() throw them as before.
 */

#ifndef CAMJ_CORE_PIPELINE_H
#define CAMJ_CORE_PIPELINE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "core/delay.h"
#include "core/report.h"
#include "digital/cyclesim.h"
#include "digital/stallcheck.h"
#include "sw/graph.h"

namespace camj
{

class AnalogArray;
class Design;

/** The ordered stages of one design-point evaluation. */
enum class EvalStage
{
    Map = 0,
    Analog,
    Digital,
    CycleSim,
    Timing,
    Energy,
};

/** Number of stages (Energy is the last). */
inline constexpr int kEvalStageCount = 6;

/** Stable lower-case stage name ("map", "cyclesim", ...). */
const char *evalStageName(EvalStage stage);

/** Cycle-sim diagnostics split by pass, plus how each pass was
 *  answered. Mergeable over evaluations. */
struct PassSimStats
{
    /** Pass A: the CycleSim stage's latency run. */
    CycleSimStats passA;
    /** Pass B: the Timing stage's stall check. */
    CycleSimStats passB;
    /** Pass-A latencies answered in closed form (chainDrainCycle). */
    size_t passAClosedForm = 0;
    /** Pass-A latencies simulated (memo hits included). */
    size_t passASimulated = 0;
    StallRouteCounts stallRoutes;

    PassSimStats &operator+=(const PassSimStats &o)
    {
        passA += o.passA;
        passB += o.passB;
        passAClosedForm += o.passAClosedForm;
        passASimulated += o.passASimulated;
        stallRoutes += o.stallRoutes;
        return *this;
    }
};

/**
 * The intermediate state of one evaluated design point. Each runX()
 * stage reads the design plus the outputs of earlier stages and
 * overwrites its own outputs, whatever an earlier run left there, so
 * one pipeline can evaluate point after point; any failed check
 * throws ConfigError exactly where the monolithic simulate() did.
 */
class EvalPipeline
{
  public:
    /**
     * Run every stage in order (the classic simulate()). With a
     * @p memo, every cycle-sim run either pass makes is looked up in
     * it first; the result is bit-identical either way, and only
     * simStats() tells the difference (a hit simulates nothing).
     */
    EnergyReport runAll(const Design &design,
                        CycleSimMemo *memo = nullptr);

    /**
     * runAll() for a caller that reports the Timing stage's dynamic
     * verdicts instead of unwinding them: a D002 (the digital latency
     * consumes the frame budget) or a D001 (the ADC source stalls)
     * ends the run after Timing and is returned, holding exactly the
     * ConfigError runAll() throws for it. nullopt when every stage
     * passed; takeReport() then holds the report. Every other failed
     * check still throws.
     */
    std::optional<ConfigError> runToVerdict(const Design &design,
                                            CycleSimMemo *memo = nullptr);

    /** The report of the last run that passed every stage, moved
     *  out: valid once per such run. */
    EnergyReport takeReport() { return std::move(report_); }

    /**
     * runAll() with a per-stage wall-clock breakdown: the time spent
     * inside each stage is ADDED to @p seconds_out (indexed by
     * EvalStage), so a caller can accumulate a profile over many
     * designs. Bench-only instrumentation; results are identical to
     * runAll().
     */
    EnergyReport runAllTimed(const Design &design,
                             double seconds_out[/*kEvalStageCount*/]);

    /** Cycle-sim execution diagnostics of the last run: pass A plus
     *  pass B, zero for passes the run skipped. */
    CycleSimStats simStats() const
    {
        CycleSimStats s = passStats_.passA;
        s += passStats_.passB;
        return s;
    }

    /** The same diagnostics per pass, with how each pass answered
     *  (none counted for a pass that did not answer: skipped, or its
     *  run failed to drain). */
    const PassSimStats &passStats() const { return passStats_; }

    /** Stages the last run actually entered (counted before each
     *  stage runs, so a mid-stage ConfigError still counts the
     *  throwing stage). */
    int stagesEntered() const { return stagesEntered_; }

  private:
    /** Per-unit analytics of the Digital stage. */
    struct UnitStats
    {
        int64_t fires = 0;
        Energy energy = 0.0;
        int latency = 1;
        /** Per input port, in elements. */
        std::vector<int64_t> portReadElems;
        int64_t writeElems = 0;
        int elemBits = 8;

        /** A fresh entry's values, keeping portReadElems' storage. */
        void clear()
        {
            fires = 0;
            energy = 0.0;
            latency = 1;
            portReadElems.clear();
            writeElems = 0;
            elemBits = 8;
        }
    };

    // ----- Map outputs -----
    std::vector<StageId> topo_;
    /** Scratch of the topological sort. */
    std::vector<int> indegree_;
    std::vector<int> topoPos_;
    std::vector<std::vector<StageId>> analogStages_;
    std::vector<std::vector<StageId>> unitStages_;
    std::vector<bool> memPrefilled_;

    // ----- Analog outputs -----
    std::vector<int64_t> analogOps_;
    int64_t volume_ = 0;
    int volumeBits_ = 8;
    /** Scratch: the analog chain the checks walk. */
    std::vector<const AnalogArray *> chain_;

    // ----- Digital outputs -----
    std::vector<UnitStats> ustats_;
    std::vector<int64_t> memReadWords_;
    std::vector<int64_t> memWriteWords_;
    std::vector<int64_t> memWriteElems_;
    int64_t mipiBytes_ = 0;
    int64_t tsvBytes_ = 0;
    bool haveDigital_ = false;

    // ----- CycleSim outputs -----
    int64_t cyclesA_ = 0;
    /** Pass A's built topology, reused by the Timing stage's pass B
     *  through CycleSim::setSourceRate() instead of a second
     *  buildSim(); refilled in place by the next point's pass A. */
    CycleSim sim_;
    /** The lists chainDrainCycle() and checkSourceStall() walk. */
    StallScratch stallScratch_;

    // ----- Timing outputs -----
    DelayEstimate delay_;

    // ----- Energy output -----
    EnergyReport report_;

    // ----- run bookkeeping (not stage state) -----
    int stagesEntered_ = 0;
    /** Cycle-sim diagnostics of the last run. */
    PassSimStats passStats_;

    /** Run every stage until one returns a verdict (only Timing
     *  does); time each into @p seconds_out when non-null. */
    std::optional<ConfigError> run(const Design &d, CycleSimMemo *memo,
                                   double *seconds_out);
    std::optional<ConfigError> runStage(const Design &d, EvalStage stage,
                                        CycleSimMemo *memo);

    void runMap(const Design &d);
    void runAnalog(const Design &d);
    void runDigital(const Design &d);
    void runCycleSim(const Design &d, CycleSimMemo *memo);
    std::optional<ConfigError> runTiming(const Design &d,
                                         CycleSimMemo *memo);
    void runEnergy(const Design &d);

    /** Refill sim_ with the cycle-level model shared by pass A
     *  (CycleSim stage) and pass B (Timing stage's stall check). */
    void buildSim(const Design &d, double source_rate_elems);
};

} // namespace camj

#endif // CAMJ_CORE_PIPELINE_H

/**
 * @file
 * SweepResult: the outcome of one design point of a sweep — the
 * feasibility verdict, the per-frame EnergyReport, and the promoted
 * breakdown helpers. Split out of sweep.h so ResultSinks (the
 * streaming consumers) don't depend on the engine itself.
 */

#ifndef CAMJ_EXPLORE_SWEEP_RESULT_H
#define CAMJ_EXPLORE_SWEEP_RESULT_H

#include <cstddef>
#include <string>

#include "explore/breakdown.h"
#include "explore/simulator.h"

namespace camj
{

/** The outcome of one design point of a sweep. */
struct SweepResult
{
    /** Position in the input stream (0-based). */
    size_t index = 0;
    /** Design name from the spec. */
    std::string designName;
    /** Feasibility verdict (false: a check failed, see error). */
    bool feasible = false;
    /** Failure text for infeasible points. */
    std::string error;
    /** Lint-rule code classifying the failure (docs/lint_rules.md);
     *  empty when feasible. */
    std::string ruleCode;
    /** Per-frame report; valid when feasible. */
    EnergyReport report;
    /** Frames the result covers (SweepOptions.sim.frames). */
    int frames = 1;
    /** SNR penalty [dB] when the sweep ran with noise enabled. */
    double snrPenaltyDb = 0.0;
    /** Cycle-sim execution diagnostics of this point's evaluation
     *  (zero for what the memo answered, and for infeasible
     *  points). Never serialized — how the engine ran, not what it
     *  computed. */
    CycleSimStats simStats;

    /** Category breakdown row ("" label = the design name). */
    BreakdownRow breakdown(const std::string &label = "") const;

    /** Sec. 6.2 power density [mW/mm^2]. @throws ConfigError when
     *  infeasible or the footprint is zero. */
    double powerDensityMwPerMm2() const;

    /** Energy over all simulated frames [J]; 0 when infeasible. */
    Energy totalEnergy() const;
};

} // namespace camj

#endif // CAMJ_EXPLORE_SWEEP_RESULT_H

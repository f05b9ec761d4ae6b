/**
 * @file
 * The stateless Simulator front-end. Design::simulate() evaluates one
 * frame of one already-materialized Design and reports failures by
 * throwing; exploration loops want the dual: evaluate a DesignSpec
 * (data, not code), choose how strict to be, aggregate over a frame
 * count, optionally attach the Sec. 6.2 SNR-penalty metric — and get
 * a feasibility *verdict* instead of an exception.
 *
 * A Simulator holds only immutable options, so one instance can be
 * shared freely across the SweepEngine's worker threads.
 */

#ifndef CAMJ_EXPLORE_SIMULATOR_H
#define CAMJ_EXPLORE_SIMULATOR_H

#include <string>

#include "common/logging.h"
#include "core/design.h"
#include "digital/cyclesim.h"
#include "noise/noise.h"
#include "spec/spec.h"

namespace camj
{

/** How simulation failures are surfaced. */
enum class CheckMode
{
    /** Any failed check throws ConfigError (the classic behavior). */
    Strict,
    /** Failed checks mark the outcome infeasible; nothing throws. */
    Report,
};

/** Options of one simulation run. */
struct SimulationOptions
{
    /** Frames to aggregate over; per-frame physics is unchanged, the
     *  outcome's totalEnergy() scales with this. */
    int frames = 1;
    CheckMode checkMode = CheckMode::Strict;
    /** Attach the thermal/SNR noise metrics (Sec. 6.2 extension). */
    bool withNoise = false;
    /** Noise budget parameters, used when withNoise. */
    NoiseParams noise;
    /** Exposure for the dark-current term [s]; 0 = half frame time. */
    Time exposure = 0.0;
};

/** The result of evaluating one design point. */
struct SimulationOutcome
{
    /** True when every pre-simulation and timing check passed. */
    bool feasible = false;
    /** ConfigError text when infeasible. */
    std::string error;
    /**
     * The failing ConfigError's rule code ("CAMJ-E010", ...; see
     * docs/lint_rules.md), so dynamic verdicts cross-reference the
     * static analyzer's catalogue. "CAMJ-D001/D002" mark the
     * genuinely dynamic failures, "CAMJ-D003" uncoded errors; empty
     * when feasible.
     */
    std::string ruleCode;
    /** Valid when feasible; per-frame quantities. */
    EnergyReport report;
    /** Frames the outcome covers (from SimulationOptions). */
    int frames = 1;
    /** SNR penalty from self-heating [dB]; set when withNoise. */
    double snrPenaltyDb = 0.0;
    /**
     * Cycle-sim execution diagnostics of the evaluation that produced
     * this outcome (zero when no simulation actually ran — memo
     * hits, infeasible points). Never serialized: the same
     * outcome can legitimately carry different stats depending on
     * which evaluation path produced it.
     */
    CycleSimStats simStats;

    /** Energy over all simulated frames [J]. */
    Energy totalEnergy() const;
};

/**
 * Assemble the successful outcome of one evaluation: frames from the
 * options, plus the Sec. 6.2 noise metric when enabled. Shared by the
 * Simulator and the IncrementalEvaluator so both paths attach exactly
 * the same metrics to the same report.
 */
SimulationOutcome finishOutcome(const SimulationOptions &options,
                                EnergyReport report);

/** Assemble the infeasible outcome for a failed check: its error
 *  text and rule code. */
SimulationOutcome failureOutcome(const SimulationOptions &options,
                                 std::string what, std::string code);

/** Stateless design-point evaluator. */
class Simulator
{
  public:
    /** @throws ConfigError on invalid options (e.g. frames < 1). */
    explicit Simulator(SimulationOptions options = {});

    const SimulationOptions &options() const { return options_; }

    /**
     * Evaluate a materialized design.
     *
     * CheckMode::Strict re-throws the first failed check; Report
     * captures it in the outcome.
     */
    SimulationOutcome run(const Design &design) const;

    /** Materialize and evaluate a spec. Materialization errors obey
     *  the same CheckMode as simulation errors. */
    SimulationOutcome run(const spec::DesignSpec &spec) const;

    /** Classic strict single-report entry point. @throws ConfigError. */
    EnergyReport simulate(const Design &design) const;

    /** Strict single-report evaluation of a spec. @throws ConfigError. */
    EnergyReport simulate(const spec::DesignSpec &spec) const;

  private:
    SimulationOptions options_;

    SimulationOutcome finish(EnergyReport report) const;
    SimulationOutcome failure(const ConfigError &e) const;
};

} // namespace camj

#endif // CAMJ_EXPLORE_SIMULATOR_H

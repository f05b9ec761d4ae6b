#include "explore/simulator.h"

#include <cmath>

#include "common/logging.h"

namespace camj
{

Energy
SimulationOutcome::totalEnergy() const
{
    return report.total() * static_cast<double>(frames);
}

Simulator::Simulator(SimulationOptions options)
    : options_(options)
{
    if (options_.frames < 1)
        fatal("Simulator: frames must be >= 1 (got %d)",
              options_.frames);
    if (options_.exposure < 0.0)
        fatal("Simulator: negative exposure");
}

SimulationOutcome
finishOutcome(const SimulationOptions &options, EnergyReport report)
{
    SimulationOutcome out;
    out.feasible = true;
    out.frames = options.frames;
    out.report = std::move(report);
    // The Energy stage checked the frame total; these are the other
    // numbers a result line prints.
    if (!std::isfinite(out.totalEnergy()))
        fatal(Rule::D004,
              "Design %s: %d frames of %g J total %g J, not a finite "
              "number", out.report.designName.c_str(), out.frames,
              out.report.total(), out.totalEnergy());
    if (options.withNoise) {
        NoiseModel model(options.noise);
        const Time exposure = options.exposure > 0.0
                                  ? options.exposure
                                  : 0.5 * out.report.frameTime;
        out.snrPenaltyDb =
            model.snrPenaltyDb(out.report.powerDensity(), exposure);
        if (!std::isfinite(out.snrPenaltyDb))
            fatal(Rule::D004,
                  "Design %s: the SNR penalty is %g dB, not a finite "
                  "number", out.report.designName.c_str(),
                  out.snrPenaltyDb);
    }
    return out;
}

SimulationOutcome
failureOutcome(const SimulationOptions &options, std::string what,
               std::string code)
{
    SimulationOutcome out;
    out.feasible = false;
    out.frames = options.frames;
    out.error = std::move(what);
    out.ruleCode = std::move(code);
    return out;
}

SimulationOutcome
Simulator::finish(EnergyReport report) const
{
    return finishOutcome(options_, std::move(report));
}

SimulationOutcome
Simulator::failure(const ConfigError &e) const
{
    return failureOutcome(options_, e.what(), e.code());
}

SimulationOutcome
Simulator::run(const Design &design) const
{
    // Stats are attached to feasible outcomes only: a throwing check
    // abandons the pipeline mid-run, so there is nothing coherent to
    // report for infeasible points.
    CycleSimStats stats;
    if (options_.checkMode == CheckMode::Strict) {
        SimulationOutcome out = finish(design.simulate(&stats));
        out.simStats = stats;
        return out;
    }
    try {
        SimulationOutcome out = finish(design.simulate(&stats));
        out.simStats = stats;
        return out;
    } catch (const ConfigError &e) {
        return failure(e);
    }
}

SimulationOutcome
Simulator::run(const spec::DesignSpec &spec) const
{
    CycleSimStats stats;
    if (options_.checkMode == CheckMode::Strict) {
        SimulationOutcome out =
            finish(spec.materialize().simulate(&stats));
        out.simStats = stats;
        return out;
    }
    try {
        SimulationOutcome out =
            finish(spec.materialize().simulate(&stats));
        out.simStats = stats;
        return out;
    } catch (const ConfigError &e) {
        return failure(e);
    }
}

EnergyReport
Simulator::simulate(const Design &design) const
{
    return design.simulate();
}

EnergyReport
Simulator::simulate(const spec::DesignSpec &spec) const
{
    return spec.materialize().simulate();
}

} // namespace camj

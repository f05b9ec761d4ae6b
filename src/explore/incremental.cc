#include "explore/incremental.h"

#include <utility>

#include "common/logging.h"
#include "core/pipeline.h"

namespace camj
{

IncrementalEvaluator::IncrementalEvaluator(SimulationOptions options)
    : options_(options)
{
    if (options_.frames < 1)
        fatal("IncrementalEvaluator: frames must be >= 1 (got %d)",
              options_.frames);
    if (options_.exposure < 0.0)
        fatal("IncrementalEvaluator: negative exposure");
}

SimulationOutcome
IncrementalEvaluator::evaluate(const spec::DesignSpec &spec)
{
    ++stats_.points;
    ++stats_.fullBuilds;
    // Materialize and run every stage through the memo.
    EvalPipeline pipeline;
    try {
        const Design design = spec.materialize();
        EnergyReport report = pipeline.runAll(design, &memo_);
        stats_.stagesRun += static_cast<size_t>(pipeline.stagesEntered());
        passStats_ += pipeline.passStats();
        SimulationOutcome out = finishOutcome(options_, std::move(report));
        out.simStats = pipeline.simStats();
        return out;
    } catch (const ConfigError &e) {
        // Zero when materialize() threw: the pipeline never started.
        stats_.stagesRun += static_cast<size_t>(pipeline.stagesEntered());
        passStats_ += pipeline.passStats();
        if (options_.checkMode == CheckMode::Strict)
            throw;
        return failureOutcome(options_, e.what(), e.code());
    }
}

SimulationOutcome
IncrementalEvaluator::evaluate(
    const spec::DesignSpec &spec,
    const std::vector<std::string> & /*changed_paths*/)
{
    return evaluate(spec);
}

} // namespace camj

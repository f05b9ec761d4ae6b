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

template <typename Build>
SimulationOutcome
IncrementalEvaluator::run(Build build)
{
    ++stats_.points;
    ++stats_.fullBuilds;
    // Run every stage through the memo.
    EvalPipeline pipeline;
    try {
        const Design &design = build();
        EnergyReport report = pipeline.runAll(design, &memo_);
        stats_.stagesRun += static_cast<size_t>(pipeline.stagesEntered());
        passStats_ += pipeline.passStats();
        SimulationOutcome out = finishOutcome(options_, std::move(report));
        out.simStats = pipeline.simStats();
        return out;
    } catch (const ConfigError &e) {
        // Zero when materializing threw: the pipeline never started.
        stats_.stagesRun += static_cast<size_t>(pipeline.stagesEntered());
        passStats_ += pipeline.passStats();
        if (options_.checkMode == CheckMode::Strict)
            throw;
        return failureOutcome(options_, e.what(), e.code());
    }
}

SimulationOutcome
IncrementalEvaluator::evaluate(const spec::DesignSpec &spec)
{
    return run([&spec] { return spec.materialize(); });
}

SimulationOutcome
IncrementalEvaluator::evaluate(const spec::SpecPoint &point)
{
    if (!point.built)
        return evaluate(point.spec);
    return run([&point]() -> const Design & {
        if (point.error)
            std::rethrow_exception(point.error);
        return point.design();
    });
}

SimulationOutcome
IncrementalEvaluator::evaluate(
    const spec::DesignSpec &spec,
    const std::vector<std::string> & /*changed_paths*/)
{
    return evaluate(spec);
}

} // namespace camj

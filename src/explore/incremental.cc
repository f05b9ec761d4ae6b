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

std::optional<ConfigError>
IncrementalEvaluator::runStages(const Design &design)
{
    // Counted however the run ends: a stage that throws still counts.
    struct Tally
    {
        IncrementalEvaluator &e;
        ~Tally()
        {
            e.stats_.stagesRun +=
                static_cast<size_t>(e.pipeline_.stagesEntered());
            e.passStats_ += e.pipeline_.passStats();
        }
    } tally{*this};
    return pipeline_.runToVerdict(design, &memo_);
}

template <typename Build>
SimulationOutcome
IncrementalEvaluator::run(Build build)
{
    ++stats_.points;
    ++stats_.fullBuilds;
    std::optional<ConfigError> verdict;
    try {
        verdict = runStages(build());
        if (!verdict) {
            SimulationOutcome out =
                finishOutcome(options_, pipeline_.takeReport());
            out.simStats = pipeline_.simStats();
            return out;
        }
    } catch (const ConfigError &e) {
        if (options_.checkMode == CheckMode::Strict)
            throw;
        return failureOutcome(options_, e.what(), e.code());
    }
    // D001 or D002: the error runAll() throws, reported unthrown.
    if (options_.checkMode == CheckMode::Strict)
        throw *verdict;
    return failureOutcome(options_, verdict->what(), verdict->code());
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

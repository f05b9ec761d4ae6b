#include "explore/incremental.h"

#include <utility>

#include "common/logging.h"
#include "core/pipeline.h"

namespace camj
{

IncrementalEvaluator::IncrementalEvaluator(SimulationOptions options,
                                           const std::string &cache_dir)
    : options_(options)
{
    if (options_.frames < 1)
        fatal("IncrementalEvaluator: frames must be >= 1 (got %d)",
              options_.frames);
    if (options_.exposure < 0.0)
        fatal("IncrementalEvaluator: negative exposure");
    if (!cache_dir.empty())
        store_.emplace(cache_dir);
}

SimulationOutcome
IncrementalEvaluator::evaluate(const spec::DesignSpec &spec)
{
    ++stats_.points;

    // A stored outcome answers the point outright.
    std::optional<json::Value> doc;
    if (store_) {
        doc = spec::toJsonValue(spec);
        if (std::optional<StoredOutcome> record = store_->load(*doc)) {
            ++stats_.diskHits;
            if (record->feasible)
                return finishOutcome(options_, std::move(record->report));
            if (options_.checkMode == CheckMode::Strict)
                throw ConfigError(record->error, record->rule);
            return failureOutcome(options_, std::move(record->error),
                                  ruleCode(record->rule));
        }
    }

    // Otherwise materialize, run every stage through the memo, and
    // persist what came out.
    ++stats_.fullBuilds;
    EvalPipeline pipeline;
    try {
        const Design design = spec.materialize();
        EnergyReport report = pipeline.runAll(design, &memo_);
        stats_.stagesRun += static_cast<size_t>(pipeline.stagesEntered());
        passStats_ += pipeline.passStats();
        if (store_)
            store_->store(*doc, {true, {}, Rule::D003, report});
        SimulationOutcome out = finishOutcome(options_, std::move(report));
        out.simStats = pipeline.simStats();
        return out;
    } catch (const ConfigError &e) {
        // Zero when materialize() threw: the pipeline never started.
        stats_.stagesRun += static_cast<size_t>(pipeline.stagesEntered());
        passStats_ += pipeline.passStats();
        if (store_)
            store_->store(*doc, {false, e.what(), e.rule(), {}});
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

/**
 * @file
 * The sweep worker's evaluator: a full evaluation per design point
 * (validate -> materialize -> the six stages of core/pipeline.h),
 * with the one expensive step memoized. Nearly all of a point's cost
 * is the cycle-level simulation behind the CycleSim and Timing
 * stages, and neighboring grid points keep rebuilding the same few
 * cycle-sim topologies, so each evaluator owns a CycleSimMemo
 * (digital/cyclesim.h) keyed by exactly that stage input: the built
 * topology. Everything else is recomputed per point; it costs
 * microseconds.
 *
 * With a cache directory configured, finished outcomes are also
 * persisted content-addressed on disk (explore/cache.h) and reused
 * across evaluator instances, processes, and restarts.
 */

#ifndef CAMJ_EXPLORE_INCREMENTAL_H
#define CAMJ_EXPLORE_INCREMENTAL_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "digital/cyclesim.h"
#include "explore/cache.h"
#include "explore/simulator.h"
#include "spec/json.h"
#include "spec/spec.h"

namespace camj
{

/** Counters of what an evaluator did. */
struct IncrementalStats
{
    /** evaluate() calls. */
    size_t points = 0;
    /** Points evaluated through the pipeline (every point the
     *  on-disk store did not answer). */
    size_t fullBuilds = 0;
    /** Pipeline stages executed over all points. Only stages
     *  actually ENTERED count — a point aborted by a ConfigError
     *  counts the throwing stage but not the stages after it. */
    size_t stagesRun = 0;
    /** Points answered from the on-disk outcome store without
     *  touching the pipeline at all. */
    size_t diskHits = 0;
};

/**
 * Evaluates a stream of DesignSpecs. Results are bit-identical to a
 * fresh Simulator::run(spec) per point — energies, feasibility
 * verdicts, and error text alike (pinned by tests/incremental_test
 * and tests/cache_test).
 *
 * NOT thread-safe: give each sweep worker its own evaluator (the
 * SweepEngine does, under SweepOptions::incremental). Distinct
 * evaluators MAY share one cache directory, concurrently and across
 * processes (the on-disk store is append-only and self-verifying).
 */
class IncrementalEvaluator
{
  public:
    /**
     * @param cache_dir When non-empty, the content-addressed on-disk
     *        outcome store directory (created if needed, shared
     *        across processes).
     * @throws ConfigError on invalid options (as Simulator does) or
     *         an unusable cache directory.
     */
    explicit IncrementalEvaluator(SimulationOptions options = {},
                                  const std::string &cache_dir = {});

    /**
     * Evaluate one design point. CheckMode::Report folds failed
     * checks into the outcome; CheckMode::Strict rethrows them (like
     * Simulator::run).
     */
    SimulationOutcome evaluate(const spec::DesignSpec &spec);

    /**
     * The same as evaluate(spec); @p changed_paths is ignored. It
     * remains for callers written against the changed-path hints
     * earlier evaluators took (the benchmark under perfbench/ still
     * passes them).
     */
    SimulationOutcome evaluate(
        const spec::DesignSpec &spec,
        const std::vector<std::string> &changed_paths);

    const IncrementalStats &stats() const { return stats_; }

    /** The cycle-sim memo this evaluator's points share. */
    const CycleSimMemo &memo() const { return memo_; }

    /** The memo's lookup traffic (memo().stats(), under the name
     *  the benchmark under perfbench/ reads). */
    const CycleSimMemoStats &compiledCacheStats() const
    {
        return memo_.stats();
    }

    /** Cycle-sim diagnostics per pass, and how each pass-B stall
     *  check was answered, summed over every point this evaluator ran
     *  through the pipeline, feasible or not. */
    const PassSimStats &passStats() const { return passStats_; }

    /** On-disk store traffic, or nullptr when no cache_dir is set. */
    const OutcomeStoreStats *outcomeStoreStats() const
    {
        return store_ ? &store_->stats() : nullptr;
    }

  private:
    SimulationOptions options_;
    CycleSimMemo memo_;
    std::optional<OutcomeStore> store_;
    IncrementalStats stats_;
    PassSimStats passStats_;
};

} // namespace camj

#endif // CAMJ_EXPLORE_INCREMENTAL_H

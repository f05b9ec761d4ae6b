/**
 * @file
 * The sweep worker's evaluator: a full evaluation per design point
 * (validate -> materialize -> the six stages of core/pipeline.h),
 * with the cycle-level simulation behind the CycleSim and Timing
 * stages memoized. Where a topology still has to be simulated, that
 * simulation is the dearest step of a point, and neighboring grid
 * points keep rebuilding the same few cycle-sim topologies, so each
 * evaluator owns a CycleSimMemo (digital/cyclesim.h) keyed by exactly
 * that stage input: the built topology. On the canonical grid and the
 * paper studies the closed forms and the backlog bound leave nothing
 * to simulate, and the six stages are most of a point's time beside
 * expansion and the sinks (docs/performance.md). A grid point arrives
 * materialized from its grid's base (SpecPoint); everything else but
 * the memoized simulation is recomputed per point, in one EvalPipeline
 * the evaluator keeps for its lifetime, so a point reuses the storage
 * the one before it left. A point that misses its frame rate (D002)
 * or stalls its ADC source (D001) is a verdict the pipeline returns,
 * not an exception: the sweep reports it without unwinding.
 *
 * Every SweepEngine worker evaluates through one of these, so every
 * sweep (runStream, run, runShard, and through it `camj_sweep run` and
 * the served workers) takes this path. Simulator::run and
 * SweepEngine::runSerial stay memo-free: they are the reference the
 * memo is checked against.
 */

#ifndef CAMJ_EXPLORE_INCREMENTAL_H
#define CAMJ_EXPLORE_INCREMENTAL_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "digital/cyclesim.h"
#include "explore/simulator.h"
#include "spec/source.h"
#include "spec/spec.h"

namespace camj
{

/** Counters of what an evaluator did. */
struct IncrementalStats
{
    /** evaluate() calls. */
    size_t points = 0;
    /** Points evaluated through the pipeline; always equal to
     *  points (the benchmark under perfbench/ reads it). */
    size_t fullBuilds = 0;
    /** Pipeline stages executed over all points. Only stages
     *  actually ENTERED count — a point aborted by a ConfigError
     *  counts the throwing stage but not the stages after it, and a
     *  D001 or D002 verdict counts Timing as entered. */
    size_t stagesRun = 0;
};

/**
 * Evaluates a stream of DesignSpecs. Results are bit-identical to a
 * fresh Simulator::run(spec) per point — energies, feasibility
 * verdicts, and error text alike (pinned by tests/incremental_test
 * and tests/cache_test).
 *
 * NOT thread-safe: give each sweep worker its own evaluator (the
 * SweepEngine does).
 */
class IncrementalEvaluator
{
  public:
    /** @throws ConfigError on invalid options (as Simulator does). */
    explicit IncrementalEvaluator(SimulationOptions options = {});

    /**
     * Evaluate one design point. CheckMode::Report folds failed
     * checks into the outcome; CheckMode::Strict throws them (like
     * Simulator::run), a D001 or D002 verdict included, as the
     * ConfigError Simulator::run throws.
     */
    SimulationOutcome evaluate(const spec::DesignSpec &spec);

    /**
     * The same for a point a source handed over (SpecSource::
     * pointAt): its Design, or the error materializing it threw,
     * when the source materialized it, else evaluate(point.spec).
     */
    SimulationOutcome evaluate(const spec::SpecPoint &point);

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

  private:
    SimulationOptions options_;
    CycleSimMemo memo_;
    /** Every point's stages run here, each overwriting what the
     *  point before it left. */
    EvalPipeline pipeline_;
    IncrementalStats stats_;
    PassSimStats passStats_;

    /** The stages over @p design, counted into stats_ and
     *  passStats_: a D001/D002 verdict, or nullopt and the report in
     *  pipeline_. @throws ConfigError as runAll() does otherwise. */
    std::optional<ConfigError> runStages(const Design &design);

    /** Run the stages over the Design @p build returns (a ConfigError
     *  it throws is the point's verdict, as the stages' are). */
    template <typename Build>
    SimulationOutcome run(Build build);
};

} // namespace camj

#endif // CAMJ_EXPLORE_INCREMENTAL_H

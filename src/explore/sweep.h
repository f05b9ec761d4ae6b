/**
 * @file
 * SweepEngine: the Fig. 4 exploration feedback loop as a streaming
 * pipeline. A sweep pulls DesignSpecs from a SpecSource (a vector, a
 * lazy SweepGrid expansion, a generator), evaluates each point on a
 * std::thread pool (materialize -> simulate), and pushes structured
 * SweepResults into a ResultSink as they complete — no ConfigError
 * ever escapes a sweep, results stream instead of accumulating, and
 * a sink (or a CancelToken) can stop the sweep early.
 *
 * Specs are value types and the engine is stateless; the source is
 * pulled and the sink is fed under per-side locks, so neither needs
 * to be thread-safe. Evaluation itself shares nothing, which keeps
 * every result bit-identical to a serial loop over the same specs —
 * the classic run(vector) API survives as a thin wrapper (ref-source
 * + CollectSink) over the streaming core.
 */

#ifndef CAMJ_EXPLORE_SWEEP_H
#define CAMJ_EXPLORE_SWEEP_H

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "explore/incremental.h"
#include "explore/simulator.h"
#include "explore/sink.h"
#include "explore/sweep_result.h"
#include "spec/source.h"
#include "spec/spec.h"

namespace camj
{

/** Options of one sweep. */
struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int threads = 0;
    /** Per-design-point simulation options. checkMode is forced to
     *  Report inside the sweep: infeasibility is a result, not an
     *  exception. */
    SimulationOptions sim;
    /** Give each worker an IncrementalEvaluator (explore/incremental.h)
     *  instead of a plain Simulator: the worker's points share one
     *  cycle-sim memo, so a topology the worker already simulated is
     *  not simulated again. Results are bit-identical either way
     *  (pinned by tests/incremental_test.cc). */
    bool incremental = false;
    /** When non-empty (and incremental), the content-addressed
     *  on-disk outcome store directory, shared across workers,
     *  processes, and repeated runs (created if needed). */
    std::string cacheDir;
};

/**
 * Cooperative cancellation handle: share one token with a running
 * sweep and cancel() it from anywhere (another thread, a signal
 * handler's deferred path). Workers observe it between design points.
 */
class CancelToken
{
  public:
    void cancel() { flag_.store(true, std::memory_order_relaxed); }
    bool cancelled() const
    {
        return flag_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> flag_{false};
};

/** What one streaming run did. */
struct StreamStats
{
    /** Design points pulled from the source. */
    size_t produced = 0;
    /** Results the sink accepted. */
    size_t delivered = 0;
    /** True when the sink or a CancelToken stopped the sweep early. */
    bool cancelled = false;
    /** Points answered from the on-disk outcome store, summed over
     *  all workers; 0 unless SweepOptions::cacheDir named one. The
     *  sweep service reports this per job. */
    size_t outcomeCacheHits = 0;
    /** Cycle-sim execution diagnostics summed over every evaluation
     *  the run performed (camj_sweep run --verbose prints these).
     *  Diagnostics only — never part of any serialized result. */
    CycleSimStats cycleSim;
    /** Cycle-sim memo lookups summed over all workers; zero unless
     *  SweepOptions::incremental. */
    CycleSimMemoStats cycleSimMemo;
    /** Cycle-sim diagnostics per pass, with pass B's stall-check
     *  routes, over every point evaluated (feasible or not) summed
     *  over all workers; zero unless SweepOptions::incremental. */
    PassSimStats passes;
};

/** Parallel design-space evaluator. */
class SweepEngine
{
  public:
    /** @throws ConfigError on negative thread counts. */
    explicit SweepEngine(SweepOptions options = {});

    const SweepOptions &options() const { return options_; }

    /** Worker count a run will actually use for @p jobs points. */
    int effectiveThreads(size_t jobs) const;

    /**
     * The thread-count policy as a pure function: a requested count
     * of 0 means "use @p hardware_concurrency", a reported hardware
     * concurrency of 0 (unknown) means 1, and the result is clamped
     * to the job count but never below 1.
     */
    static int threadsFor(int requested, size_t jobs,
                          unsigned hardware_concurrency);

    /**
     * The streaming core: pull every point of @p source, evaluate
     * across the worker pool, push each completed SweepResult into
     * @p sink (calls serialized, completion order — wrap the sink in
     * InOrderSink for input order). Stops early when the sink's
     * accept() returns false or @p cancel fires; either way the
     * sink's finish() runs exactly once before returning.
     *
     * Evaluation never throws (infeasibility is data), but the
     * source or sink itself may: such an exception stops the sweep
     * and is rethrown here on the calling thread, after finish().
     */
    StreamStats runStream(spec::SpecSource &source, ResultSink &sink,
                          const CancelToken *cancel = nullptr) const;

    /**
     * Classic batch API: evaluate every spec; results come back in
     * input order. Never throws ConfigError — infeasible points
     * carry their error text. (A thin wrapper over runStream.)
     */
    std::vector<SweepResult> run(
        const std::vector<spec::DesignSpec> &specs) const;

    /** Single-threaded reference implementation (identical results;
     *  used for verification and speedup baselines). */
    std::vector<SweepResult> runSerial(
        const std::vector<spec::DesignSpec> &specs) const;

  private:
    SweepOptions options_;

    /** Evaluate one point through @p evaluator, or a plain Simulator
     *  when it is null. */
    SweepResult evaluateOne(const spec::DesignSpec &spec, size_t index,
                            IncrementalEvaluator *evaluator) const;
};

/** Render the feasible rows as a breakdown table; infeasible rows
 *  render as one-line verdicts. */
std::string formatSweepTable(const std::vector<SweepResult> &results);

} // namespace camj

#endif // CAMJ_EXPLORE_SWEEP_H

/**
 * @file
 * SweepEngine: the Fig. 4 exploration feedback loop as a streaming
 * pipeline. A sweep walks the points of a SpecSource (a vector, a
 * lazy SweepGrid expansion, a generator, a shard of any of them) with
 * one atomic cursor, evaluates each point on a std::thread pool, and
 * pushes structured SweepResults into a ResultSink as they complete —
 * no ConfigError ever escapes a sweep, results stream instead of
 * accumulating, and a sink (or a CancelToken) can stop the sweep
 * early.
 *
 * Every worker evaluates through its own IncrementalEvaluator
 * (explore/incremental.h), so the points one worker takes share one
 * cycle-sim memo; results are bit-identical to a memo-free Simulator
 * run of each point (runSerial is that reference). The sink is fed
 * under a lock, so it need not be thread-safe; the source is asked for
 * points by index from every worker, so it must be. The classic
 * run(vector) API survives as a thin wrapper (ref-source +
 * CollectSink) over the streaming core.
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
#include "spec/shard.h"
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
    /** Selects nothing: every worker evaluates through an
     *  IncrementalEvaluator. Kept only because the benchmark under
     *  perfbench/ assigns it (ROADMAP item 8 deletes it). */
    bool incremental = false;
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
    /** Design points taken from the source. */
    size_t produced = 0;
    /** Results the sink accepted. */
    size_t delivered = 0;
    /** True when the sink or a CancelToken stopped the sweep early. */
    bool cancelled = false;
    /** Cycle-sim execution diagnostics summed over every evaluation
     *  the run performed (camj_sweep run --verbose prints these).
     *  Diagnostics only — never part of any serialized result. */
    CycleSimStats cycleSim;
    /** Cycle-sim memo lookups summed over all workers' memos. */
    CycleSimMemoStats cycleSimMemo;
    /** Cycle-sim diagnostics per pass, with how pass A's latency and
     *  pass B's stall check were answered, over every point evaluated
     *  (feasible or not) summed over all workers. */
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
     * The streaming core: take every point of @p source in index
     * order off one atomic cursor, evaluate across the worker pool
     * (at most totalPoints() workers, each with its own
     * IncrementalEvaluator), push each completed SweepResult into
     * @p sink (calls serialized, completion order — wrap the sink in
     * InOrderSink for input order). Stops early when the sink's
     * accept() returns false or @p cancel fires; either way the
     * sink's finish() runs exactly once before returning.
     *
     * Evaluation never throws (infeasibility is data), but the
     * source or sink itself may, and so may the evaluator's
     * constructor on invalid options: such an exception stops the
     * sweep and is rethrown here on the calling thread, after
     * finish().
     */
    StreamStats runStream(const spec::SpecSource &source,
                          ResultSink &sink,
                          const CancelToken *cancel = nullptr) const;

    /**
     * Classic batch API: evaluate every spec; results come back in
     * input order. Never throws ConfigError — infeasible points
     * carry their error text. (A thin wrapper over runStream.)
     */
    std::vector<SweepResult> run(
        const std::vector<spec::DesignSpec> &specs) const;

    /** Single-threaded, memo-free reference: a fresh Simulator::run
     *  per spec, with results identical to run()'s. Tests and benches
     *  check the memo path against it. */
    std::vector<SweepResult> runSerial(
        const std::vector<spec::DesignSpec> &specs) const;

  private:
    SweepOptions options_;
};

/**
 * Run the points @p shard owns out of @p source on @p threads workers
 * (0 = all cores). @p sink gets the results in ascending order,
 * stamped with their GLOBAL grid index: the lines of a `camj_sweep
 * run` shard file or a served attempt. The one place the chain
 * ShardSpecSource -> SweepEngine -> InOrderSink -> ReindexSink is
 * built. Stops and throws as SweepEngine::runStream does, and
 * @throws ConfigError when @p shard does not fit @p source.
 */
StreamStats runShard(const spec::SpecSource &source,
                     const spec::ShardAssignment &shard, int threads,
                     const SimulationOptions &sim, ResultSink &sink,
                     const CancelToken *cancel = nullptr);

/** Render the feasible rows as a breakdown table; infeasible rows
 *  render as one-line verdicts. */
std::string formatSweepTable(const std::vector<SweepResult> &results);

} // namespace camj

#endif // CAMJ_EXPLORE_SWEEP_H

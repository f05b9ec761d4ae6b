/**
 * @file
 * The sweep-service scheduler: admission, shard dispatch, failure
 * recovery, and the incremental in-order merge.
 *
 * Admission runs the full static-analysis stack BEFORE any worker
 * spins up, through the same analysis::lintDocument as `camj_sweep
 * lint` — the key lint and the spec rules over the document the
 * submit frame carries (parsed once, with the frame; a document that
 * does not lower becomes one CAMJ-E018 diagnostic), then grid
 * validation, then the GridAnalyzer infeasibility analysis over the
 * grid source lint builds. That source is handed to the job, so its
 * in-process workers shard the grid admission already built and
 * probed. Documents with error diagnostics are rejected with their
 * CAMJ-* codes; provably infeasible points are REPORTED but still
 * evaluated, because pruning would change the output bytes and the
 * service's contract is byte-identity with a local `camj_sweep
 * run`.
 *
 * A job runs on the thread that admitted it — the submitter's
 * connection thread — with no thread of its own: submit() admits,
 * run() runs the dispatch/monitor loop there until the job is
 * terminal. planShards partitions the grid, and every shard runs as
 * either an in-process worker (runShard, the call `camj_sweep run`
 * makes) or a subprocess worker (fork/exec of `camj_sweep run` over a
 * shard descriptor file). In-process, shards 1..N-1 each start one
 * attempt thread, which renders each result line and hands its merge
 * record (jsonlRecordOf: the line's bytes plus the fields the summary
 * reduces) to the job's inbox in memory; shard 0 — the global prefix
 * of contiguous shards — is evaluated in place on the job's thread,
 * which offers each line to the merge and commits it as it renders,
 * so no later shard's line can commit before it. A subprocess attempt
 * writes an ordinary shard JSONL file, which the monitor tails and
 * parses line by line. Either way the records fold into the merge
 * state — at-least-once dispatch made exactly-once output by
 * construction: a failed, killed, or stalled attempt is salvaged up
 * to what it handed over (its last record, or its file's last
 * complete line), the shard's still-missing indices are re-dispatched
 * as ONE explicitShard over exactly the hole (the resume-plan shape
 * of `camj_sweep merge`; shard 0's hole runs in place again), and any
 * index arriving twice fails the job loudly, mirroring
 * mergeShardFiles's duplicate/overlap errors. Each commit appends the
 * newly contiguous global prefix to the job's spool (which late
 * `stream` attachers read) and hands the same bytes to run()'s
 * writer, the submitter's socket, so clients stream results while
 * later shards still run; the end-of-stream MergeSummary is reduced
 * through the same accumulateMergeRecord that batch merges use.
 *
 * The monitor runs on events, not a timer: attempt threads bump a
 * per-job event count with every record they hand over and after
 * publishing their verdict, and the monitor sleeps until the count
 * moves past the value it read before its last pass over the
 * workers. A subprocess attempt signals nothing, so while one runs
 * the wait is bounded by 20 ms and the monitor polls; otherwise the
 * bound is heartbeatSeconds (at least 20 ms), a backstop. Waits that
 * end on their bound are counted in JobRecord::monitorPolls.
 *
 * Failure detection: subprocess workers by waitpid plus an
 * output-growth heartbeat (a worker whose attempt file stops growing
 * for heartbeatSeconds is presumed wedged, killed, and re-dispatched);
 * in-process workers by exception capture and the job's CancelToken
 * (a stuck in-process worker cannot be killed — that mode trades
 * isolation for latency, and docs/service.md says so). A point that
 * fails is a coded infeasible line, not a failed attempt, so what
 * still fails an in-process attempt is fault injection, an exception
 * escaping a sink or the source, or an allocation failure; such an
 * attempt is retried like a subprocess one.
 */

#ifndef CAMJ_SERVE_SCHEDULER_H
#define CAMJ_SERVE_SCHEDULER_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "serve/registry.h"
#include "spec/grid.h"
#include "spec/json.h"

namespace camj::serve
{

/** How the scheduler runs jobs. */
struct SchedulerOptions
{
    /** Shards per job (workers running concurrently). */
    size_t shards = 2;
    /** SweepEngine threads per worker; 0 = all cores. */
    int threadsPerWorker = 1;
    /** Frames per design point (a submit frame may override). */
    int frames = 1;
    /** Run shards as `camj_sweep run` subprocesses instead of
     *  in-process engine threads. */
    bool subprocessWorkers = false;
    /** The camj_sweep binary (subprocess mode). */
    std::string sweepBinary;
    /** Where subprocess workers' attempt files and shard descriptors
     *  live (default: a camj-serve-<pid> directory under the system
     *  temp dir). Created only when subprocessWorkers is set: an
     *  in-process scheduler writes nothing to disk. */
    std::string workDir;
    /** Top-K table size of the end-of-stream summary. */
    size_t topK = 5;
    /** Subprocess stall detector: no attempt-file growth for this
     *  long while the process lives means kill + re-dispatch. Also
     *  bounds the monitor's wait while only in-process attempts
     *  run. */
    double heartbeatSeconds = 30.0;
    /** Dispatch attempts per shard before the job fails. */
    size_t maxAttempts = 3;
    /** Fault injection for tests and CI: the listed shard indices
     *  fail their FIRST attempt deterministically (in-process: the
     *  worker stops after handing over half its points; subprocess:
     *  the worker is SIGKILLed at spawn), exercising the salvage +
     *  re-dispatch path on an otherwise healthy run. */
    std::vector<size_t> testFailShards;
};

/** The scheduler: admits jobs, and runs each on the thread that
 *  admitted it. */
class Scheduler
{
  public:
    /** What submit() decided. */
    struct Admission
    {
        /** The admitted job; nullptr when rejected. */
        std::shared_ptr<JobRecord> job;
        /** Rejection reason (empty when admitted). */
        std::string reason;
        /** Lint findings (rejections carry the errors; admissions
         *  may carry warnings). */
        std::vector<analysis::Diagnostic> diagnostics;
        size_t points = 0;
        size_t pruned = 0;

      private:
        friend class Scheduler;
        /** What run() evaluates: in-process workers shard @c grid,
         *  the source admission built over @c sweep (null once run);
         *  subprocess workers are handed descriptors written from
         *  @c sweep. */
        spec::SweepDocument sweep;
        std::shared_ptr<const spec::GridSpecSource> grid;
        int frames = 0;
        int threads = 0;
    };

    /** Takes each committed batch of result lines, after the job's
     *  spool has it; false (the reader is gone) cancels the job, and
     *  the writer is not called again. */
    using LineWriter = std::function<bool(const std::string &)>;

    Scheduler(SchedulerOptions options, JobRegistry &registry);

    /** Waits for every admitted job to be run (drain()). */
    ~Scheduler();

    /**
     * Admission. Lints @p doc, and either rejects (Admission::job ==
     * nullptr, reason + diagnostics filled) or creates a Queued job
     * that the caller must then run(). @p frames / @p threads
     * override the scheduler defaults when positive. Never throws on
     * a bad document — that is a rejection.
     */
    Admission submit(const json::Value &doc, int frames = 0,
                     int threads = 0);

    /**
     * Run an admitted job on the calling thread until it is
     * terminal, every commit handed to @p write. In-process, shard 0
     * runs in place and shards 1..N-1 on one attempt thread each; in
     * subprocess mode every shard is a `camj_sweep run` process. A
     * job cancelled before run() ends cancelled. Its end frame is set
     * (JobRecord::endFrame) when run() returns.
     */
    void run(Admission &admission, const LineWriter &write);

    /** Stop admitting (submit() rejects from now on) and wait until
     *  every admitted job has been run. */
    void drain();

    /** Fire every active job's CancelToken. */
    void cancelAll();

    const SchedulerOptions &options() const { return options_; }

  private:
    /** The dispatch/monitor loop of one admitted job. */
    void runJob(JobRecord &job, const spec::SweepDocument &doc,
                const spec::GridSpecSource &grid, int frames,
                int threads, const LineWriter &write);

    SchedulerOptions options_;
    JobRegistry &registry_;
    std::mutex mutex_;
    std::condition_variable idle_;
    size_t admitted_ = 0; // guarded by mutex_: admitted, not yet run
    bool stopped_ = false; // guarded by mutex_
};

} // namespace camj::serve

#endif // CAMJ_SERVE_SCHEDULER_H

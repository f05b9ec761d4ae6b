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
 * Each admitted job gets its own thread running the dispatch/monitor
 * loop (submit() joins the threads of jobs that have finished, so the
 * scheduler holds one per running job plus the newest): planShards
 * partitions the grid, and every shard runs as either an in-process
 * worker (runShard, the call `camj_sweep run` makes, on a
 * std::thread) or a subprocess worker (fork/exec of `camj_sweep run` over a shard
 * descriptor file). An in-process worker renders each result line
 * and hands its merge record (jsonlRecordOf: the line's bytes plus
 * the fields the summary reduces) to the job's inbox in memory; a
 * subprocess attempt writes an ordinary shard JSONL file, which the
 * monitor tails and parses line by line. Either way the monitor
 * folds the records into the merge state — at-least-once dispatch
 * made exactly-once output by construction: a failed, killed, or
 * stalled attempt is salvaged up to what it handed over (its last
 * record, or its file's last complete line), the shard's
 * still-missing indices are re-dispatched as ONE explicitShard over
 * exactly the hole (the resume-plan shape of `camj_sweep merge`), and
 * any index arriving twice fails the job loudly, mirroring
 * mergeShardFiles's duplicate/overlap errors. Each monitor pass
 * commits the newly contiguous global prefix to the job's spool in
 * one append, so clients stream results while later shards still
 * run, and the end-of-stream MergeSummary is reduced through the
 * same accumulateMergeRecord that batch merges use.
 *
 * The monitor runs on events, not a timer: in-process workers bump a
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

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

/** The scheduler: one dispatch thread per admitted job. */
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
    };

    Scheduler(SchedulerOptions options, JobRegistry &registry);

    /** Joins every job thread (cancels nothing — call cancelAll()
     *  first for a fast teardown). */
    ~Scheduler();

    /**
     * Admission + dispatch. Lints @p doc, and either rejects
     * (Admission::job == nullptr, reason + diagnostics filled) or
     * creates a job and starts its dispatch thread. @p frames /
     * @p threads override the scheduler defaults when positive.
     * Never throws on a bad document — that is a rejection.
     */
    Admission submit(const json::Value &doc, int frames = 0,
                     int threads = 0);

    /** Stop admitting (submit() rejects from now on) and wait for
     *  every running job to reach a terminal state. */
    void drain();

    /** Fire every active job's CancelToken. */
    void cancelAll();

    const SchedulerOptions &options() const { return options_; }

    /** Job threads not yet joined. submit() joins those of finished
     *  jobs, so this never exceeds the running jobs plus one. */
    size_t jobThreads() const;

  private:
    /** A job's dispatch thread, joined once the job is terminal. */
    struct JobThread
    {
        std::shared_ptr<JobRecord> job;
        std::thread thread;
    };

    /** Run one admitted job. In-process workers shard @p grid, the
     *  source admission built over @p doc; subprocess workers are
     *  handed descriptors written from @p doc. */
    void runJob(std::shared_ptr<JobRecord> job, spec::SweepDocument doc,
                std::shared_ptr<const spec::GridSpecSource> grid,
                int frames, int threads);

    SchedulerOptions options_;
    JobRegistry &registry_;
    mutable std::mutex threadsMutex_;
    std::vector<JobThread> threads_; // guarded by threadsMutex_
    bool stopped_ = false;           // guarded by threadsMutex_
};

} // namespace camj::serve

#endif // CAMJ_SERVE_SCHEDULER_H

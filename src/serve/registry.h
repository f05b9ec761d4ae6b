/**
 * @file
 * The job registry of the sweep service: one JobRecord per submitted
 * sweep, carrying the job's lifecycle state, live progress counters,
 * its cooperative CancelToken, and the STREAM SPOOL — the merged
 * in-global-order result bytes committed so far. The scheduler is the
 * only writer of the spool, on the thread that runs the job and also
 * writes each commit to the submitter; any number of `stream`
 * attachers read it concurrently, each at its own offset, via
 * waitSpool(). The spool holds exactly the bytes a single-process
 * `camj_sweep run` of the same document would have written, so a
 * client that copies it verbatim reproduces the local file byte for
 * byte.
 */

#ifndef CAMJ_SERVE_REGISTRY_H
#define CAMJ_SERVE_REGISTRY_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "explore/sweep.h"
#include "spec/json.h"

namespace camj::serve
{

/** Lifecycle of one job. */
enum class JobState
{
    Queued,
    Running,
    /** All points produced; the final summary is being reduced. */
    Merging,
    Done,
    Failed,
    Cancelled,
};

/** Wire name of a state ("queued", "running", ...). */
const char *jobStateName(JobState state);

/** One submitted sweep. */
class JobRecord
{
  public:
    explicit JobRecord(std::string id) : id_(std::move(id)) {}

    const std::string &id() const { return id_; }

    JobState state() const
    {
        return state_.load(std::memory_order_relaxed);
    }
    void setState(JobState s)
    {
        state_.store(s, std::memory_order_relaxed);
    }
    /** Done, Failed, or Cancelled. */
    bool terminal() const;

    // Progress counters (scheduler writes, status frames read).
    std::atomic<size_t> pointsTotal{0};
    /** Points merged and committed to the spool (== the contiguous
     *  global prefix streamed so far). */
    std::atomic<size_t> pointsDone{0};
    /** Workers re-dispatched after a failure, kill, or stall. */
    std::atomic<size_t> workerRestarts{0};
    /** Monitor waits that ended on their timeout rather than on a
     *  worker event: 0 for an in-process job whose workers never go
     *  quiet for the heartbeat window; one per poll while a
     *  subprocess attempt runs. */
    std::atomic<size_t> monitorPolls{0};
    /** Attempt threads the job started: one per in-process attempt of
     *  shards 1..N-1 (shard 0 runs on the job's own thread, and
     *  subprocess attempts start none). */
    std::atomic<size_t> attemptThreads{0};
    /** Points the admission prefilter proved infeasible (they are
     *  still evaluated — pruning would change the output bytes). */
    std::atomic<size_t> prunedPoints{0};

    /** Cooperative cancellation: shared with every in-process worker
     *  and checked by the scheduler's monitor before each pass over
     *  its workers. */
    CancelToken cancel;

    // ----- the stream spool -----

    /** Append merged result bytes and wake streamers. */
    void appendSpool(const std::string &bytes);

    /** Mark the stream complete with its end-of-stream frame (the
     *  terminal "end" control frame streamers forward last). */
    void finishStream(json::Value end_frame);

    /**
     * Block until the spool grows past @p offset or the stream
     * completes. Appends the new bytes (possibly none) to @p out and
     * advances @p offset.
     *
     * @return true while the stream may still grow; false once the
     *         stream is complete AND @p offset has reached its end.
     */
    bool waitSpool(size_t &offset, std::string &out);

    /** The end-of-stream frame; null until finishStream(). */
    json::Value endFrame() const;

    /** Failure text (Failed jobs). */
    std::string error() const;
    void setError(const std::string &text);

    /** The job's "status" control frame. */
    json::Value statusFrame() const;

  private:
    std::string id_;
    std::atomic<JobState> state_{JobState::Queued};

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::string spool_;      // guarded by mutex_
    bool streamDone_ = false; // guarded by mutex_
    json::Value endFrame_;   // guarded by mutex_
    std::string error_;      // guarded by mutex_
};

/** The registry: id allocation + lookup, thread-safe. */
class JobRegistry
{
  public:
    /** Finished jobs create() keeps for status and re-streaming, the
     *  newest ones: a long-lived daemon's memory stays bounded. */
    static constexpr size_t kRetainedFinishedJobs = 64;

    /** A fresh Queued job ("job-1", "job-2", ...). Drops the finished
     *  jobs older than the newest kRetainedFinishedJobs; a running job
     *  is never dropped, and a connection streaming a dropped job
     *  holds its own reference. */
    std::shared_ptr<JobRecord> create();

    /** Lookup; nullptr when unknown or dropped. */
    std::shared_ptr<JobRecord> find(const std::string &id) const;

    /** Every job, in creation order. */
    std::vector<std::shared_ptr<JobRecord>> jobs() const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<JobRecord>> jobs_;
    size_t nextId_ = 1;
};

} // namespace camj::serve

#endif // CAMJ_SERVE_REGISTRY_H

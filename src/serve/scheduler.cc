#include "serve/scheduler.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/grid_analyzer.h"
#include "common/logging.h"
#include "explore/jsonl.h"
#include "explore/sink.h"
#include "explore/sweep.h"
#include "serve/protocol.h"
#include "spec/shard.h"

namespace camj::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** How often the monitor polls while a subprocess attempt runs: a
 *  subprocess signals nothing, so its file growth and its exit are
 *  only seen by looking. */
constexpr Clock::duration kSubprocessPoll =
    std::chrono::milliseconds(20);

/**
 * The monitor's wake-up and the job's inbox: attempt threads hand
 * over each result line's merge record (bumping the event count) and
 * bump the count again after publishing their verdict, and the
 * monitor sleeps until the count moves past the value it read BEFORE
 * its last pass over the slots — so an event landing during that
 * pass ends the next wait at once instead of being missed.
 */
class MonitorWake
{
  public:
    void signal()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++events_;
        }
        cv_.notify_one();
    }

    /** Append @p record to the inbox and wake the monitor. */
    void deliver(JsonlRecord record)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inbox_.push_back(std::move(record));
            ++events_;
        }
        cv_.notify_one();
    }

    /** Move every record handed over so far into @p out, which is
     *  cleared first (the two buffers swap, so neither reallocates
     *  once warm). */
    void take(std::vector<JsonlRecord> &out)
    {
        out.clear();
        std::lock_guard<std::mutex> lock(mutex_);
        out.swap(inbox_);
    }

    uint64_t events()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return events_;
    }

    /** Wait until the count passes @p seen or @p cancel fires, at
     *  most @p bound. @return false when the wait timed out. */
    bool waitPast(uint64_t seen, Clock::duration bound,
                  const CancelToken &cancel)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, bound, [&] {
            return events_ != seen || cancel.cancelled();
        });
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    uint64_t events_ = 0;            // guarded by mutex_
    std::vector<JsonlRecord> inbox_; // guarded by mutex_
};

/** The last sink of an attempt thread: each line's merge record,
 *  raw bytes included (sweepResultToJsonl verbatim, identical to
 *  JsonlSink's), goes to the job's inbox. */
class InboxSink : public ResultSink
{
  public:
    explicit InboxSink(MonitorWake &wake) : wake_(wake) {}

    bool accept(SweepResult result) override
    {
        wake_.deliver(jsonlRecordOf(result, line_));
        return true;
    }

  private:
    MonitorWake &wake_;
    /** The line being rendered, reused from line to line. */
    std::string line_;
};

/** Fault injection: cancels the sweep (accept -> false) after a
 *  fixed number of accepted results, simulating a worker that dies
 *  part way through its shard. */
class LimitSink : public ResultSink
{
  public:
    LimitSink(ResultSink &inner, size_t limit, bool enabled)
        : inner_(inner), remaining_(limit), enabled_(enabled)
    {
    }

    bool accept(SweepResult result) override
    {
        if (enabled_) {
            if (remaining_ == 0)
                return false;
            --remaining_;
        }
        return inner_.accept(std::move(result));
    }

    void finish() override { inner_.finish(); }

  private:
    ResultSink &inner_;
    size_t remaining_;
    bool enabled_;
};

/**
 * The incremental in-order merge: the streaming twin of
 * mergeShardFiles. offer() keys on the global index, rejects
 * duplicates as loudly as the batch merge rejects overlaps, and
 * buffers arrivals; commit() appends the newly contiguous prefix to
 * the job's spool in one write — summary reduction through the
 * shared accumulateMergeRecord, so a streamed merge cannot drift
 * from a batch merge.
 */
struct MergeState
{
    size_t total = 0;
    std::vector<bool> seen;
    std::map<size_t, JsonlRecord> pending;
    size_t next = 0;
    MergeSummary summary;
    /** The bytes of the last commit, reused from commit to commit. */
    std::string batch;

    void offer(JsonlRecord record)
    {
        if (record.index >= total)
            fatal("serve: worker produced index %zu but the grid "
                  "covers [0, %zu)", record.index, total);
        if (seen[record.index])
            fatal("serve: duplicate index %zu — two shard attempts "
                  "overlap", record.index);
        seen[record.index] = true;
        pending.emplace(record.index, std::move(record));
    }

    /** @return the bytes committed (empty when nothing was). */
    const std::string &commit(JobRecord &job)
    {
        batch.clear();
        while (!pending.empty() && pending.begin()->first == next) {
            JsonlRecord r = std::move(pending.begin()->second);
            pending.erase(pending.begin());
            batch += r.raw;
            batch += '\n';
            accumulateMergeRecord(summary, std::move(r));
            ++next;
        }
        if (!batch.empty()) {
            job.appendSpool(batch);
            job.pointsDone.store(next, std::memory_order_relaxed);
        }
        return batch;
    }
};

/** One shard's dispatch slot: its full ownership and the attempt
 *  currently running. */
struct WorkerSlot
{
    spec::ShardAssignment owned;
    spec::ShardAssignment current;
    size_t shardIndex = 0;
    size_t attempts = 0;
    bool active = false;
    bool done = false;
    /** The attempt runs in place on the job's thread (shard 0 of an
     *  in-process job), not on an attempt thread. */
    bool inPlace = false;

    // Attempt thread: the worker hands its records to the inbox,
    // publishes failText, then verdict (release); the monitor reads
    // verdict (acquire), joins, then reads failText.
    std::thread thread;
    std::shared_ptr<std::atomic<int>> verdict;
    std::shared_ptr<std::string> failText;

    // Subprocess attempt, and the tail state of its attempt file.
    pid_t pid = -1;
    std::string attemptPath;
    size_t consumed = 0;
    std::string tailBytes;
    Clock::time_point lastProgress;
};

/** Worker verdicts. */
constexpr int kRunning = -1;
constexpr int kOk = 0;
constexpr int kFailed = 1;
constexpr int kJobCancelled = 2;

/**
 * One in-process attempt: the shard `camj_sweep run` evaluates, its
 * lines handed to @p lines. Fault injection (@p inject) stops it after
 * half its points, a worker dying mid-shard.
 *
 * @return its verdict; kFailed with @p fail_text when it threw.
 */
int
runAttempt(const spec::GridSpecSource &grid, const spec::ShardAssignment &a,
           int threads, const SimulationOptions &sim, ResultSink &lines,
           bool inject, const CancelToken &cancel, std::string &fail_text)
{
    try {
        LimitSink limited(lines, std::max<size_t>(a.count() / 2, 1),
                          inject);
        const StreamStats stats =
            runShard(grid, a, threads, sim, limited, &cancel);
        if (cancel.cancelled())
            return kJobCancelled;
        return stats.cancelled ? kFailed : kOk;
    } catch (const std::exception &e) {
        fail_text = e.what();
        return kFailed;
    }
}

std::string
describeExit(int status)
{
    if (WIFEXITED(status))
        return strprintf("worker exited with status %d",
                         WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return strprintf("worker killed by signal %d",
                         WTERMSIG(status));
    return "worker ended abnormally";
}

json::Value
summaryToJson(const MergeSummary &summary)
{
    json::Value o = json::Value::makeObject();
    o.set("records", static_cast<int64_t>(summary.records));
    o.set("feasible", static_cast<int64_t>(summary.feasible));
    o.set("infeasible", static_cast<int64_t>(summary.infeasible));
    o.set("totalEnergy", summary.totalEnergy);
    json::Value cats = json::Value::makeObject();
    for (const auto &[name, e] : summary.categoryTotals)
        cats.set(name, e);
    o.set("categoryTotals", std::move(cats));
    json::Value top = json::Value::makeArray();
    for (const JsonlRecord &r : summary.topK) {
        json::Value t = json::Value::makeObject();
        t.set("index", static_cast<int64_t>(r.index));
        t.set("design", r.design);
        t.set("totalEnergy", r.totalEnergy);
        top.push(std::move(t));
    }
    o.set("topK", std::move(top));
    o.set("text", formatMergeSummary(summary));
    return o;
}

} // namespace

Scheduler::Scheduler(SchedulerOptions options, JobRegistry &registry)
    : options_(std::move(options)), registry_(registry)
{
    if (options_.shards == 0)
        options_.shards = 1;
    // Only subprocess workers exchange files with the daemon; an
    // in-process daemon writes nothing to disk.
    if (!options_.subprocessWorkers)
        return;
    if (options_.sweepBinary.empty())
        fatal("serve: subprocess workers need the camj_sweep binary "
              "path");
    if (options_.workDir.empty())
        options_.workDir =
            (std::filesystem::temp_directory_path() /
             strprintf("camj-serve-%d", static_cast<int>(::getpid())))
                .string();
    std::error_code ec;
    std::filesystem::create_directories(options_.workDir, ec);
    if (ec)
        fatal("serve: cannot create work dir '%s': %s",
              options_.workDir.c_str(), ec.message().c_str());
}

Scheduler::~Scheduler()
{
    drain();
}

Scheduler::Admission
Scheduler::submit(const json::Value &doc, int frames, int threads)
{
    Admission adm;

    // Admission lint: the full static-analysis rule set, grid
    // validation and the infeasibility prefilter. Provably doomed
    // points are REPORTED, not pruned — the served stream must stay
    // byte-identical to a local run over the full grid.
    analysis::DocumentLint lint = analysis::lintDocument(doc);
    adm.diagnostics = std::move(lint.diagnostics);
    if (!lint.sweep) {
        adm.reason = std::move(lint.rejection);
        return adm;
    }
    adm.points = lint.sweep->grid.points();
    adm.pruned = lint.grid.prunedPoints();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) {
            adm.reason = "server is shutting down";
            return adm;
        }
        ++admitted_;
    }
    adm.job = registry_.create();
    adm.job->pointsTotal.store(adm.points, std::memory_order_relaxed);
    adm.job->prunedPoints.store(adm.pruned,
                                std::memory_order_relaxed);
    adm.sweep = std::move(*lint.sweep);
    adm.grid = std::move(lint.source);
    adm.frames = frames > 0 ? frames : options_.frames;
    adm.threads = threads > 0 ? threads : options_.threadsPerWorker;
    return adm;
}

void
Scheduler::run(Admission &admission, const LineWriter &write)
{
    const std::shared_ptr<const spec::GridSpecSource> grid =
        std::move(admission.grid);
    if (grid == nullptr)
        panic("Scheduler::run: no admitted job to run");
    runJob(*admission.job, admission.sweep, *grid, admission.frames,
           admission.threads, write);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --admitted_;
    }
    idle_.notify_all();
}

void
Scheduler::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    stopped_ = true;
    idle_.wait(lock, [this] { return admitted_ == 0; });
}

void
Scheduler::cancelAll()
{
    for (const auto &job : registry_.jobs()) {
        if (!job->terminal())
            job->cancel.cancel();
    }
}

void
Scheduler::runJob(JobRecord &job, const spec::SweepDocument &doc,
                  const spec::GridSpecSource &grid, int frames,
                  int threads, const LineWriter &write)
{
    std::string job_error;
    bool cancelled = false;
    MonitorWake wake; // outlives every worker: teardown joins them
    std::vector<std::unique_ptr<WorkerSlot>> slots;
    MergeState merge;
    merge.summary.topKLimit = options_.topK;
    std::vector<JsonlRecord> taken; // the inbox, as of the last take
    SimulationOptions sim;
    sim.frames = frames;

    auto takeInbox = [&] {
        wake.take(taken);
        for (JsonlRecord &record : taken)
            merge.offer(std::move(record));
    };

    // Commit the newly contiguous prefix: to the spool, then to the
    // writer. A writer that fails cancels the job, as the submitter
    // is gone.
    bool writing = true;
    auto commit = [&] {
        const std::string &bytes = merge.commit(job);
        if (!bytes.empty() && writing && !write(bytes)) {
            writing = false;
            job.cancel.cancel();
        }
    };

    // Tail @p slot's attempt file (subprocess workers): consume the
    // new COMPLETE lines (a partial trailing line stays in tailBytes
    // until its newline lands — or is dropped with the attempt, which
    // is exactly the salvage rule for a worker killed mid-write).
    auto consume = [&](WorkerSlot &slot) {
        std::ifstream in(slot.attemptPath, std::ios::binary);
        if (!in)
            return;
        in.seekg(static_cast<std::streamoff>(slot.consumed));
        if (!in)
            return;
        std::string chunk{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
        if (chunk.empty())
            return;
        slot.consumed += chunk.size();
        slot.lastProgress = Clock::now();
        slot.tailBytes += chunk;
        for (;;) {
            const size_t pos = slot.tailBytes.find('\n');
            if (pos == std::string::npos)
                break;
            std::string line = slot.tailBytes.substr(0, pos);
            slot.tailBytes.erase(0, pos + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            merge.offer(parseJsonlLine(line));
        }
    };

    // Fault injection: the listed shards fail their first attempt.
    auto injects = [&](const WorkerSlot &slot) {
        return slot.attempts == 1 &&
               std::find(options_.testFailShards.begin(),
                         options_.testFailShards.end(),
                         slot.shardIndex) !=
                   options_.testFailShards.end();
    };

    auto launchThread = [&](WorkerSlot &slot, bool inject) {
        auto verdict = std::make_shared<std::atomic<int>>(kRunning);
        auto fail_text = std::make_shared<std::string>();
        slot.verdict = verdict;
        slot.failText = fail_text;
        const spec::ShardAssignment a = slot.current;
        job.attemptThreads.fetch_add(1, std::memory_order_relaxed);
        slot.thread = std::thread([&grid, &wake, &job, a, inject, sim,
                                   threads, verdict, fail_text] {
            InboxSink lines(wake);
            verdict->store(runAttempt(grid, a, threads, sim, lines,
                                      inject, job.cancel, *fail_text),
                           std::memory_order_release);
            wake.signal();
        });
    };

    auto launchSubprocess = [&](WorkerSlot &slot, bool inject) {
        slot.attemptPath = strprintf(
            "%s/%s-shard-%zu-attempt-%zu.jsonl",
            options_.workDir.c_str(), job.id().c_str(),
            slot.shardIndex, slot.attempts);
        slot.consumed = 0;
        slot.tailBytes.clear();
        slot.lastProgress = Clock::now();
        const std::string desc_path = strprintf(
            "%s/%s-shard-%zu-attempt-%zu.json",
            options_.workDir.c_str(), job.id().c_str(),
            slot.shardIndex, slot.attempts);
        {
            std::ofstream desc(desc_path, std::ios::binary);
            desc << spec::shardDescriptorToJson(
                spec::ShardDescriptor{doc, slot.current});
            desc.flush();
            if (!desc)
                fatal("serve: cannot write shard descriptor '%s'",
                      desc_path.c_str());
        }
        const std::vector<std::string> args = {
            options_.sweepBinary, "run",       desc_path,
            "--out",              slot.attemptPath,
            "--threads",          std::to_string(threads),
            "--frames",           std::to_string(frames),
            "--no-lint"};
        const std::string log_path = slot.attemptPath + ".log";
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("serve: fork failed: %s", std::strerror(errno));
        if (pid == 0) {
            // Fault injection must beat the worker: the child dies
            // before exec, so the restart is deterministic even for
            // shards that finish in milliseconds (a kill sent by the
            // parent can land after a fast child has already done).
            if (inject)
                ::kill(::getpid(), SIGKILL);
            const int log_fd = ::open(log_path.c_str(),
                                      O_WRONLY | O_CREAT | O_TRUNC,
                                      0644);
            if (log_fd >= 0) {
                ::dup2(log_fd, 1);
                ::dup2(log_fd, 2);
                ::close(log_fd);
            }
            std::vector<char *> argv;
            argv.reserve(args.size() + 1);
            for (const std::string &arg : args)
                argv.push_back(const_cast<char *>(arg.c_str()));
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        slot.pid = pid;
    };

    // An in-place attempt is only marked here: the monitor's pass
    // runs it (runInPlace).
    auto launch = [&](WorkerSlot &slot) {
        ++slot.attempts;
        slot.active = true;
        if (options_.subprocessWorkers)
            launchSubprocess(slot, injects(slot));
        else if (!slot.inPlace)
            launchThread(slot, injects(slot));
    };

    // An attempt ended (worker finished, crashed, was killed, or
    // stalled): everything it handed over (its records, or its file's
    // complete lines) is already merged, so the shard's remaining
    // hole is exactly its owned-but-unseen indices.
    // Re-dispatch ONE explicit shard over that hole — the same
    // resume shape `camj_sweep merge --resume-plan` emits.
    auto finalize = [&](WorkerSlot &slot, int verdict,
                        const std::string &fail_text) {
        slot.active = false;
        std::vector<size_t> missing;
        for (size_t local = 0; local < slot.owned.count(); ++local) {
            const size_t global = slot.owned.globalIndex(local);
            if (!merge.seen[global])
                missing.push_back(global);
        }
        if (missing.empty()) {
            slot.done = true;
            return;
        }
        if (verdict == kJobCancelled)
            return;
        if (slot.attempts >= options_.maxAttempts)
            fatal("serve: shard %zu still missing %zu point(s) "
                  "after %zu attempt(s)%s%s", slot.shardIndex,
                  missing.size(), slot.attempts,
                  fail_text.empty() ? "" : ": ", fail_text.c_str());
        job.workerRestarts.fetch_add(1, std::memory_order_relaxed);
        slot.current =
            spec::explicitShard(merge.total, std::move(missing));
        launch(slot);
    };

    // Run @p slot's attempt on this thread, and each re-dispatch of
    // its hole. Each line is offered to the merge and committed as it
    // renders: the slot is shard 0, the global prefix, so no line of
    // a later shard can commit before it. A merge error fails the
    // job, not the attempt.
    std::string line; // the line being rendered, reused
    auto runInPlace = [&](WorkerSlot &slot) {
        while (slot.active) {
            std::exception_ptr merge_error;
            CallbackSink lines([&](SweepResult result) {
                JsonlRecord record = jsonlRecordOf(result, line);
                try {
                    merge.offer(std::move(record));
                } catch (...) {
                    merge_error = std::current_exception();
                    return false;
                }
                commit();
                return true;
            });
            std::string fail_text;
            const int v =
                runAttempt(grid, slot.current, threads, sim, lines,
                           injects(slot), job.cancel, fail_text);
            if (merge_error)
                std::rethrow_exception(merge_error);
            finalize(slot, v, fail_text);
        }
    };

    auto reapSubprocess = [&](WorkerSlot &slot, int status) {
        slot.pid = -1;
        consume(slot);
        const int verdict =
            job.cancel.cancelled()
                ? kJobCancelled
                : (WIFEXITED(status) && WEXITSTATUS(status) == 0
                       ? kOk
                       : kFailed);
        finalize(slot, verdict,
                 verdict == kFailed ? describeExit(status) : "");
    };

    auto tick = [&](WorkerSlot &slot) {
        if (!slot.active)
            return;
        if (slot.inPlace) {
            runInPlace(slot);
            return;
        }
        if (slot.pid > 0) {
            consume(slot);
            int status = 0;
            const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
            if (r == slot.pid) {
                reapSubprocess(slot, status);
            } else if (std::chrono::duration<double>(
                           Clock::now() - slot.lastProgress)
                           .count() > options_.heartbeatSeconds) {
                // Straggler: alive but not producing. Kill, salvage,
                // re-dispatch the hole.
                ::kill(slot.pid, SIGKILL);
                ::waitpid(slot.pid, &status, 0);
                slot.pid = -1;
                consume(slot);
                finalize(slot,
                         job.cancel.cancelled() ? kJobCancelled
                                                : kFailed,
                         "stalled: no output growth past the "
                         "heartbeat window");
            }
            return;
        }
        const int v = slot.verdict->load(std::memory_order_acquire);
        if (v == kRunning)
            return;
        slot.thread.join();
        // The joined attempt handed over every record before its
        // verdict: take them before finalize computes the hole.
        takeInbox();
        finalize(slot, v, *slot.failText);
    };

    try {
        job.setState(JobState::Running);
        const size_t total = doc.grid.points();
        merge.total = total;
        merge.seen.assign(total, false);
        const size_t shard_count =
            std::min(options_.shards, std::max<size_t>(total, 1));
        const spec::ShardPlan plan = spec::planShards(
            total, shard_count, spec::ShardMode::Contiguous);
        for (size_t k = 0; k < plan.shards.size(); ++k) {
            auto slot = std::make_unique<WorkerSlot>();
            slot->owned = plan.shards[k];
            slot->current = plan.shards[k];
            slot->shardIndex = k;
            slot->inPlace = k == 0 && !options_.subprocessWorkers;
            slots.push_back(std::move(slot));
        }
        // Shards 1..N-1 start first; the first pass then runs shard 0
        // in place.
        for (const auto &slot : slots)
            launch(*slot);

        // While only in-process attempts run, every change the
        // monitor acts on arrives as a worker event, so its wait's
        // bound is a backstop (never shorter than the subprocess
        // poll, so a zero heartbeat cannot make it spin); a running
        // subprocess is polled.
        const Clock::duration idle_bound = std::max<Clock::duration>(
            kSubprocessPoll,
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    options_.heartbeatSeconds)));
        for (;;) {
            if (job.cancel.cancelled()) {
                cancelled = true;
                break;
            }
            const uint64_t seen = wake.events();
            takeInbox();
            bool all_done = true;
            bool polling = false;
            for (const auto &slot : slots) {
                tick(*slot);
                if (!slot->done)
                    all_done = false;
                if (slot->pid > 0)
                    polling = true;
            }
            // One commit (and one write) per pass.
            commit();
            if (all_done)
                break;
            if (!wake.waitPast(seen,
                               polling ? kSubprocessPoll : idle_bound,
                               job.cancel))
                job.monitorPolls.fetch_add(1, std::memory_order_relaxed);
        }
    } catch (const std::exception &e) {
        job_error = e.what();
        // A failing job still streams the prefix it merged.
        commit();
    }

    // Teardown: stop whatever is still running. In-process workers
    // observe the cancel token between points; subprocess workers
    // are killed outright.
    if (!job_error.empty() || cancelled)
        job.cancel.cancel();
    for (const auto &slot : slots) {
        if (slot->pid > 0) {
            ::kill(slot->pid, SIGKILL);
            int status = 0;
            ::waitpid(slot->pid, &status, 0);
            slot->pid = -1;
        }
        if (slot->thread.joinable())
            slot->thread.join();
    }

    json::Value end = makeFrame("end");
    end.set("job", job.id());
    if (job_error.empty() && !cancelled &&
        merge.next != merge.total)
        job_error = strprintf(
            "merge finished with %zu of %zu point(s) — a shard hole "
            "survived re-dispatch", merge.next, merge.total);
    if (job_error.empty() && !cancelled) {
        job.setState(JobState::Merging);
        end.set("state", "done");
        end.set("summary", summaryToJson(merge.summary));
    } else if (cancelled && job_error.empty()) {
        end.set("state", "cancelled");
    } else {
        job.setError(job_error);
        end.set("state", "failed");
        end.set("error", job_error);
    }
    end.set("pointsDone", static_cast<int64_t>(merge.next));
    end.set("workerRestarts",
            static_cast<int64_t>(job.workerRestarts.load(
                std::memory_order_relaxed)));
    end.set("monitorPolls",
            static_cast<int64_t>(job.monitorPolls.load(
                std::memory_order_relaxed)));
    end.set("attemptThreads",
            static_cast<int64_t>(job.attemptThreads.load(
                std::memory_order_relaxed)));
    if (job_error.empty() && !cancelled)
        job.setState(JobState::Done);
    else
        job.setState(cancelled && job_error.empty()
                         ? JobState::Cancelled
                         : JobState::Failed);
    job.finishStream(std::move(end));
}

} // namespace camj::serve

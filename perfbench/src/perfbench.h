/**
 * @file
 * Shared pieces of the CamJ benchmark: the seeded workload generator,
 * the job model, the in-process sweep path, the served path, and the
 * span recorder of the traced run. See perfbench/README.md for what
 * each workload stresses and how its metrics are defined.
 */
#ifndef CAMJ_PERFBENCH_PERFBENCH_H
#define CAMJ_PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "digital/cyclesim.h"
#include "spec/json.h"
#include "spec/shard.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** splitmix64. Its stream depends on the seed alone, on every
 *  platform and standard library, so a seed names one job list. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [0, n); n > 0. */
    size_t below(size_t n);

    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state_;
};

/** What one operation runs: a sweep document evaluated end to end. */
struct Job
{
    /** The sweep document, as a file or a submit frame carries it. */
    std::string text;
    /** Grid jobs may run one strided shard k/N of their document;
     *  shardCount == 1 runs the whole document. */
    size_t shardIndex = 0;
    size_t shardCount = 1;
    /** Studies: the golden key the energies are checked against. */
    std::string study;
};

/** Everything one workload runs, generated before any timing. */
struct JobList
{
    /** The distinct documents, each held once. */
    std::vector<Job> docs;
    /** The jobs in list order: job i runs docs[order[i]]. */
    std::vector<size_t> order;
    /** The untimed warm-up job; the same for every seed. */
    Job warmup;
    /** Grid and studies: the canonical detector sweep, which their
     *  traced runs submit once to measure the serve layer. */
    Job probe;

    size_t size() const { return order.size(); }
    const Job &job(size_t i) const { return docs[order[i]]; }
};

/** Per-category golden energies of one study [J per frame]. */
using GoldenEnergies = std::map<std::string, std::map<std::string, double>>;

/** Grid jobs per distinct grid document. Each document runs this
 *  often in a list, so its fastest run is taken over more runs. */
constexpr size_t kGridRepeats = 4;

/** Build @p count jobs of @p workload ("grid", "studies", "served")
 *  from @p seed. @p root is the repository checkout (the canonical
 *  sweep document and the golden specs are read from it). */
JobList makeJobs(const std::string &workload, const std::string &root,
                 uint64_t seed, size_t count);

/** tests/golden/energies.json. */
GoldenEnergies loadGoldenEnergies(const std::string &root);

/** The shard slices one job evaluates: one slice for a `camj_sweep
 *  run`, the daemon's contiguous 2-way split for a served job. */
std::vector<camj::spec::ShardAssignment>
jobSlices(const Job &job, size_t total, bool served);

// ------------------------------------------------------------ tracing

/** One timed layer call. */
struct Span
{
    const char *name = "";
    /** Index of the enclosing span in the same trace; -1 for roots. */
    long parent = -1;
    /** The job the call belongs to. */
    size_t job = 0;
    Clock::time_point start;
    Clock::time_point end;
};

/** Spans kept in memory during the traced run, written at exit. */
class Trace
{
  public:
    /** Record a finished span; returns its index. */
    long add(const char *name, long parent, size_t job,
             Clock::time_point start, Clock::time_point end);
    /** Open a span ending at close(); returns its index. */
    long open(const char *name, long parent, size_t job,
              Clock::time_point start = Clock::now());
    void close(long id, Clock::time_point end = Clock::now());
    /** Append @p other's spans (parents re-based). */
    void append(const Trace &other);

    /** Total self time [s] (duration minus the children's) and call
     *  count of every span name. */
    std::map<std::string, std::pair<double, size_t>> selfTimes() const;

    /** Write one JSON line per job (its @p labels entry) and then one
     *  per span, times in ns since the first span. */
    void write(const std::string &path,
               const std::vector<std::string> &labels) const;

    size_t size() const { return spans_.size(); }

  private:
    std::vector<Span> spans_;
};

// ------------------------------------------------- in-process sweeps

/** What one job produced, timed from the job start. */
struct JobRun
{
    /** The JSONL stream. */
    std::string bytes;
    size_t lines = 0;
    /** Job start -> first / last result line. */
    double firstSeconds = 0.0;
    double lastSeconds = 0.0;
    /** Job start -> the engine and its sinks destroyed and the stream
     *  handed back: everything the job costs. */
    double totalSeconds = 0.0;
};

/**
 * Run @p job through the calls `camj_sweep run` makes, on one engine
 * thread: parse -> lint -> GridSpecSource -> ShardSpecSource ->
 * incremental SweepEngine -> InOrderSink/ReindexSink/JsonlSink, with
 * the bytes kept in memory. A document the linter rejects throws.
 */
JobRun runSweepJob(const Job &job);

/** Counters of the traced replay (exact, speed-independent). */
struct ReplayCounters
{
    size_t points = 0;
    size_t fullBuilds = 0;
    size_t stagesRun = 0;
    size_t lruHits = 0;
    size_t lruMisses = 0;
    camj::CycleSimStats sim;
};

/**
 * The traced twin of runSweepJob: the same layer calls, made one at a
 * time on this thread, each recorded as a span under a "job" span.
 * Served jobs also run the admission prefilter and evaluate the
 * daemon's shard slices, each on a fresh evaluator. Returns the bytes
 * (which must equal the untraced stream).
 */
std::string replayJob(const Job &job, bool served, size_t job_index,
                      Trace &trace, ReplayCounters &counters);

/** Admission's prefilter over @p job's document, as a root span (the
 *  in-process workloads do not run it on their own path). */
void tracePrefilter(const Job &job, size_t job_index, Trace &trace);

/** Per-point stage split: materialize + EvalPipeline::runAllTimed
 *  over up to @p max_points points of the documents @p docs, from
 *  scratch. */
void traceFullBuilds(const std::vector<Job> &docs, size_t max_points,
                     uint64_t seed, Trace &trace);

/** The from-scratch reference of a job: Simulator::run +
 *  sweepResultToJsonl per point of its slice. */
std::string referenceStream(const Job &job);

/** Check a studies job's JSONL against the golden energies at the
 *  golden harness's 1e-9 relative tolerance; "" when it matches. */
std::string checkStudyEnergies(const std::string &bytes,
                               const std::string &study,
                               const GoldenEnergies &golden);

// ------------------------------------------------------- served path

/** A child process started with its standard output on a pipe. */
struct Spawned
{
    int pid = -1;
    /** The first line it printed (with its newline), or what it
     *  printed before closing its output. */
    std::string line;
};

/** posix_spawn @p args (args[0] is the program) and read the first
 *  line of its standard output. @throws std::runtime_error when the
 *  program cannot be started. */
Spawned spawnForLine(std::vector<std::string> args);

/** A camj_serve daemon with its own fresh work directory. */
class Daemon
{
  public:
    /** Spawn @p binary with its defaults plus --work-dir under
     *  @p dir; returns once a ping is answered. */
    Daemon(const std::string &binary, const std::string &dir);
    /** Kills and reaps the daemon if stop() was not called, and
     *  removes the work directory. */
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return port_; }
    /** Spawn -> first pong. */
    Clock::time_point spawned() const { return spawned_; }
    Clock::time_point ready() const { return ready_; }
    /** SIGTERM drain and reap. Returns the daemon's peak resident
     *  set [MB]; throws unless it exits 0. */
    double stop();

  private:
    std::string dir_;
    int pid_ = -1;
    int port_ = 0;
    Clock::time_point spawned_;
    Clock::time_point ready_;
};

/** One served job as the client saw it. */
struct ServedRun
{
    std::string bytes;
    size_t lines = 0;
    Clock::time_point start;
    /** Start -> first result line / the end frame. */
    double firstSeconds = 0.0;
    double endSeconds = 0.0;
    /** Empty on success; otherwise why the job failed. */
    std::string error;
    long workerRestarts = 0;
};

/**
 * Closed loop: @p clients connections, each submitting its share of
 * the first @p count jobs of @p list (job i goes to connection i mod
 * clients) one after the other. With @p trace the protocol is driven
 * frame by frame and each phase is recorded; otherwise through
 * serve::Client, as `camj_client submit` does.
 */
std::vector<ServedRun> runServedJobs(int port, const JobList &list,
                                     size_t count, size_t clients,
                                     Trace *trace);

/** One submit on a fresh connection (warm-up and probes). */
ServedRun submitOnce(int port, const Job &job, Trace *trace,
                     size_t job_index);

} // namespace perfbench

#endif // CAMJ_PERFBENCH_PERFBENCH_H

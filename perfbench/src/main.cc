/**
 * @file
 * camj_perfbench: the CamJ benchmark runner.
 *
 *   camj_perfbench --workload grid|studies|served --seed N --seconds S
 *                  --trace 0|1 --root DIR --tmp-dir DIR --spans-dir DIR
 *
 * Untraced runs (--trace 0) print the end-to-end metrics, the
 * in-process workloads after several rounds over their job list; a
 * traced run runs the same jobs once with every layer call recorded
 * as a span and prints the per-layer metrics. The last line of
 * standard output is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}.
 * perfbench/run.py builds this program and is the command to run;
 * perfbench/README.md explains the workloads and every metric.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.h"
#include "perfbench.h"
#include "spec/grid.h"
#include "validation/harness.h"

using namespace camj;
using namespace perfbench;

namespace
{

/** Setups per run; setup_s is their median. */
constexpr size_t kSetupRuns = 15;
/** Concurrent client connections of the served workload. */
constexpr size_t kServedClients = 2;
/** Points of the traced full-build pass (the stage split). */
constexpr size_t kFullBuildPoints = 256;
/** Served jobs whose daemon-side calls the traced run replays. */
constexpr size_t kServedReplayJobs = 256;
/** Grid jobs checked against a from-scratch evaluation. */
constexpr size_t kGridChecked = 4;
/** Threads of the deferred output checks. */
constexpr size_t kCheckThreads = 3;
/**
 * Concurrent job streams of the in-process workloads. Host noise on
 * this class of machine is weakly correlated between cores, so three
 * streams average part of it where one would follow a single core.
 */
constexpr size_t kInProcessStreams = 3;

/**
 * Jobs of the in-process workloads: the list each round runs. p95
 * needs at least ten samples beyond it, so at least 200 jobs: 50 grid
 * documents kGridRepeats times each, or 8 passes over the 27 studies.
 */
constexpr size_t kGridJobs = 50 * kGridRepeats;
constexpr size_t kStudyJobs = 8 * 27;
/**
 * Rounds per second of --seconds (in-process) and served jobs per
 * second, measured on a 4-vCPU host. They fix the work of a run from
 * the arguments alone, never from how fast the host is.
 */
constexpr double kGridRoundsPerSecond = 0.25;
constexpr double kStudyRoundsPerSecond = 0.3;
constexpr double kServedJobsPerSecond = 30.0;
constexpr size_t kMinRounds = 2;
constexpr size_t kMinServedJobs = 200;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";
    std::string tmpDir = ".bench_build/tmp";
    std::string spansDir = ".bench_build/spans";
    long jobs = 0;
    bool corrupt = false;
    bool setupProbe = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: camj_perfbench --workload "
                 "grid|studies|served --seed N --seconds S --trace 0|1\n"
                 "       [--root DIR] [--tmp-dir DIR]\n"
                 "       [--spans-dir DIR] [--jobs N] [--corrupt-check]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " wants a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            o.trace = value() != "0";
        else if (arg == "--root")
            o.root = value();
        else if (arg == "--tmp-dir")
            o.tmpDir = value();
        else if (arg == "--spans-dir")
            o.spansDir = value();
        else if (arg == "--jobs")
            o.jobs = std::atol(value().c_str());
        else if (arg == "--corrupt-check")
            o.corrupt = true;
        else if (arg == "--setup-probe")
            o.setupProbe = true;
        else
            usage(("unexpected argument " + arg).c_str());
    }
    if (o.workload != "grid" && o.workload != "studies" &&
        o.workload != "served")
        usage("--workload must be grid, studies or served");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

size_t
jobCount(const Options &o)
{
    if (o.jobs > 0)
        return static_cast<size_t>(o.jobs);
    if (o.workload == "served")
        return std::max(kMinServedJobs, static_cast<size_t>(std::round(
                                            o.seconds * kServedJobsPerSecond)));
    return o.workload == "grid" ? kGridJobs : kStudyJobs;
}

/** Rounds over the job list: in-process workloads run every job once
 *  per round; the served workload runs its jobs once. */
size_t
roundCount(const Options &o)
{
    if (o.workload == "served")
        return 1;
    const double rate = o.workload == "grid" ? kGridRoundsPerSecond
                                             : kStudyRoundsPerSecond;
    return std::max(kMinRounds,
                    static_cast<size_t>(std::round(o.seconds * rate)));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

uint64_t
hashOf(const std::string &bytes)
{
    return json::hashBytes(json::kHashSeed, bytes.data(), bytes.size());
}

/** This process's peak resident set [MB]. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/**
 * One in-process setup in a fresh process: spawn this program with
 * --setup-probe, which loads its inputs, generates the job list and
 * runs the warm-up job, then reports ready. Returns spawn -> ready.
 */
double
probeSetup(const Options &o)
{
    const std::string self =
        std::filesystem::read_symlink("/proc/self/exe").string();
    const Clock::time_point t0 = Clock::now();
    const Spawned child = spawnForLine(
        {self, "--workload", o.workload, "--seed", std::to_string(o.seed),
         "--seconds", std::to_string(o.seconds), "--root", o.root,
         "--jobs", std::to_string(jobCount(o)), "--setup-probe"});
    const Clock::time_point t1 = Clock::now();
    int status = 0;
    ::waitpid(child.pid, &status, 0);
    if (child.line != "ready\n" || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("setup probe failed");
    return secondsBetween(t0, t1);
}

/** Metrics in print order. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        items_.push_back({name, value, unit});
    }

    std::string json() const
    {
        std::string s = "{";
        for (size_t i = 0; i < items_.size(); ++i) {
            char num[64];
            std::snprintf(num, sizeof num, "%.17g", items_[i].value);
            s += strprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                           i == 0 ? "" : ", ", items_[i].name.c_str(),
                           std::isfinite(items_[i].value) ? num : "null",
                           items_[i].unit.c_str());
        }
        return s + "}";
    }

    void print(std::FILE *to) const
    {
        for (const Item &m : items_)
            std::fprintf(to, "  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                         m.unit.c_str());
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

/** Grid documents checked from scratch: seeded, at least one whole and
 *  one strided document when the list has them. */
std::vector<size_t>
checkedGridDocs(const std::vector<Job> &docs, uint64_t seed)
{
    std::vector<size_t> whole, strided;
    for (size_t d = 0; d < docs.size(); ++d)
        (docs[d].shardCount == 1 ? whole : strided).push_back(d);
    Rng rng(seed ^ 0xc0ffeeull);
    rng.shuffle(whole);
    rng.shuffle(strided);
    std::vector<size_t> picked;
    for (size_t k = 0; picked.size() < kGridChecked &&
                       k < std::max(whole.size(), strided.size());
         ++k) {
        if (k < whole.size())
            picked.push_back(whole[k]);
        if (k < strided.size() && picked.size() < kGridChecked)
            picked.push_back(strided[k]);
    }
    std::sort(picked.begin(), picked.end());
    return picked;
}

std::string
daemonDir(const Options &o, const std::string &tag)
{
    return o.tmpDir + "/serve-" + std::to_string(::getpid()) + "-" + tag;
}

/** Runs @p body(i) for i in [0, n) on a few threads. */
template <typename Body>
void
parallelFor(size_t n, Body body)
{
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next++; i < n; i = next++)
            body(i);
    };
    std::vector<std::thread> pool;
    for (size_t t = 1; t < std::min<size_t>(kCheckThreads, n); ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
}

/**
 * The output checks, all outside the timed region. Studies are checked
 * as they finish. Served streams, and those of a seeded sample of grid
 * documents, are hashed as they finish; finish() compares each hash
 * with that of its document's reference stream.
 */
class Checker
{
  public:
    Checker(const Options &o, const JobList &list, GoldenEnergies golden)
        : o_(o), list_(list), golden_(std::move(golden))
    {
        if (o.workload == "grid")
            sampled_ = checkedGridDocs(list.docs, o.seed);
        if (o.corrupt && o.workload == "studies" && list.size() > 0)
            golden_[list.job(0).study]["total"] *= 1.0 + 1e-6;
    }

    /** Check (or hash) job @p i's stream; "" unless it failed.
     *  Thread-safe. */
    std::string check(size_t i, const std::string &bytes)
    {
        const size_t doc = list_.order[i];
        if (o_.workload == "studies") {
            const std::string &study = list_.docs[doc].study;
            const std::string why =
                checkStudyEnergies(bytes, study, golden_);
            return why.empty() ? why : study + ": " + why;
        }
        if (o_.workload == "grid" &&
            !std::binary_search(sampled_.begin(), sampled_.end(), doc))
            return "";
        const uint64_t hash = hashOf(bytes);
        std::lock_guard<std::mutex> lock(mutex_);
        hashes_[doc].push_back(hash);
        return "";
    }

    /** The deferred checks; returns how many job runs failed them. */
    size_t finish()
    {
        // Served: the contract is byte identity with a local
        // `camj_sweep run`. Grid: a from-scratch Simulator::run.
        const char *differs = o_.workload == "served"
                                  ? "stream differs from camj_sweep run"
                                  : "stream differs from a from-scratch "
                                    "Simulator::run";
        std::vector<size_t> docs;
        for (const auto &[d, h] : hashes_)
            docs.push_back(d);
        std::vector<size_t> bad(docs.size(), 0);
        std::vector<std::string> why(docs.size(), differs);
        parallelFor(docs.size(), [&](size_t k) {
            const Job &doc = list_.docs[docs[k]];
            const std::vector<uint64_t> &got = hashes_.at(docs[k]);
            try {
                std::string ref = o_.workload == "served"
                                      ? runSweepJob(doc).bytes
                                      : referenceStream(doc);
                if (o_.corrupt && k == 0 && !ref.empty())
                    ref[ref.size() / 2] ^= 1;
                const uint64_t want = hashOf(ref);
                bad[k] = static_cast<size_t>(
                    std::count_if(got.begin(), got.end(),
                                  [&](uint64_t h) { return h != want; }));
            } catch (const std::exception &e) {
                bad[k] = got.size();
                why[k] = std::string("reference failed: ") + e.what();
            }
        });
        size_t failed = 0;
        for (size_t k = 0; k < docs.size(); ++k) {
            if (bad[k] == 0)
                continue;
            failed += bad[k];
            std::fprintf(stderr, "document %zu: %zu of %zu runs failed: %s\n",
                         docs[k], bad[k], hashes_.at(docs[k]).size(),
                         why[k].c_str());
        }
        hashes_.clear();
        return failed;
    }

  private:
    const Options &o_;
    const JobList &list_;
    GoldenEnergies golden_;
    std::vector<size_t> sampled_;
    std::mutex mutex_;
    /** Stream hashes by document. */
    std::map<size_t, std::vector<uint64_t>> hashes_; // guarded by mutex_
};

/** One timed job, as the metrics see it. */
struct JobTime
{
    size_t job = 0;
    size_t lines = 0;
    Clock::time_point start;
    /** Start -> first result line. */
    double first = 0.0;
    /** Start -> last result line (served: the end frame). */
    double latency = 0.0;
    /** Start -> the job's calls have returned and its engine and sinks
     *  are destroyed (served: the end frame). */
    double total = 0.0;
};

/** A pass over the first jobs of a list. */
struct Pass
{
    /** Jobs that succeeded, in job order. */
    std::vector<JobTime> done;
    size_t attempted = 0;
    size_t failed = 0;

    void fail(size_t job, const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "job %zu failed: %s\n", job, why.c_str());
    }
};

/** What one traced in-process stream recorded. */
struct Tracing
{
    Trace trace;
    ReplayCounters counters;
};

/**
 * Grid and studies: kInProcessStreams closed-loop streams, each taking
 * the next job and running it alone on its thread. With @p tracing
 * (one entry per stream) every layer call is a span (replayJob).
 */
Pass
runInProcessPass(const JobList &list, size_t count, Checker &checker,
                 std::vector<Tracing> *tracing)
{
    std::vector<Pass> parts(kInProcessStreams);
    std::atomic<size_t> next{0};
    auto stream = [&](size_t s) {
        Pass &part = parts[s];
        for (size_t i = next++; i < count; i = next++) {
            const Job &job = list.job(i);
            try {
                JobTime t;
                t.job = i;
                t.start = Clock::now();
                std::string bytes;
                if (tracing != nullptr) {
                    Tracing &tr = (*tracing)[s];
                    bytes = replayJob(job, false, i, tr.trace, tr.counters);
                    t.latency = t.total =
                        secondsBetween(t.start, Clock::now());
                    t.lines = static_cast<size_t>(
                        std::count(bytes.begin(), bytes.end(), '\n'));
                    tracePrefilter(job, i, tr.trace);
                } else {
                    JobRun r = runSweepJob(job);
                    t.first = r.firstSeconds;
                    t.latency = r.lastSeconds;
                    t.total = r.totalSeconds;
                    t.lines = r.lines;
                    bytes = std::move(r.bytes);
                }
                // Outside the timed region from here on.
                const std::string why = checker.check(i, bytes);
                if (why.empty())
                    part.done.push_back(t);
                else
                    part.fail(i, why);
            } catch (const std::exception &e) {
                part.fail(i, e.what());
            }
        }
    };
    std::vector<std::thread> pool;
    for (size_t s = 1; s < kInProcessStreams; ++s)
        pool.emplace_back(stream, s);
    stream(0);
    for (std::thread &t : pool)
        t.join();

    Pass pass;
    pass.attempted = count;
    for (Pass &part : parts) {
        pass.failed += part.failed;
        pass.done.insert(pass.done.end(), part.done.begin(), part.done.end());
    }
    std::sort(pass.done.begin(), pass.done.end(),
              [](const JobTime &a, const JobTime &b) { return a.job < b.job; });
    return pass;
}

/** Served: the closed-loop clients against @p port. */
Pass
runServedPass(int port, const JobList &list, size_t count,
              Checker &checker, Trace *trace, long &restarts)
{
    Pass pass;
    pass.attempted = count;
    std::vector<ServedRun> runs =
        runServedJobs(port, list, count, kServedClients, trace);
    for (size_t i = 0; i < runs.size(); ++i) {
        ServedRun &r = runs[i];
        restarts += r.workerRestarts;
        if (!r.error.empty()) {
            pass.fail(i, r.error);
            continue;
        }
        JobTime t;
        t.job = i;
        t.start = r.start;
        t.first = r.firstSeconds;
        t.latency = t.total = r.endSeconds;
        t.lines = r.lines;
        const std::string why = checker.check(i, r.bytes);
        if (why.empty())
            pass.done.push_back(t);
        else
            pass.fail(i, why);
    }
    return pass;
}

/** Result lines per second of wall time, first job start to last job
 *  end, over the jobs of @p done with index below @p limit. */
double
rateOf(const std::vector<JobTime> &done, size_t limit)
{
    size_t lines = 0;
    std::optional<Clock::time_point> first, last;
    for (const JobTime &t : done) {
        if (t.job >= limit)
            continue;
        const Clock::time_point end =
            t.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(t.total));
        lines += t.lines;
        first = first ? std::min(*first, t.start) : t.start;
        last = last ? std::max(*last, end) : end;
    }
    return first ? static_cast<double>(lines) / secondsBetween(*first, *last)
                 : 0.0;
}

/** Result lines per second of engine-thread time: the lines of the
 *  jobs of @p done with index below @p limit over the sum of their
 *  whole-job times, as one engine thread running them back to back
 *  sees. */
double
serialRate(const std::vector<JobTime> &done, size_t limit)
{
    size_t lines = 0;
    double seconds = 0.0;
    for (const JobTime &t : done) {
        if (t.job < limit) {
            lines += t.lines;
            seconds += t.total;
        }
    }
    return seconds > 0.0 ? static_cast<double>(lines) / seconds : 0.0;
}

/**
 * One figure per distinct document: its fastest run anywhere in
 * @p rounds (a grid document runs kGridRepeats times a round, a study
 * 8 times). Interference from other tenants only ever slows a run
 * down, so the fastest of many runs spread over the whole run is the
 * steadiest estimate of what the program itself costs. First line,
 * last line and whole job each take their own minimum. Every document
 * runs equally often in a round, so rates over these figures equal
 * rates over the round.
 */
std::vector<JobTime>
fastestRuns(const std::vector<Pass> &rounds, const JobList &list)
{
    std::map<size_t, JobTime> best; // by document
    for (const Pass &round : rounds) {
        for (const JobTime &t : round.done) {
            const auto [it, fresh] = best.emplace(list.order[t.job], t);
            if (!fresh) {
                it->second.first = std::min(it->second.first, t.first);
                it->second.latency = std::min(it->second.latency, t.latency);
                it->second.total = std::min(it->second.total, t.total);
            }
        }
    }
    std::vector<JobTime> out;
    for (const auto &[doc, t] : best)
        out.push_back(t);
    return out;
}

/** A job's name in the spans file: its study, or its design name
 *  and shard. */
std::string
jobLabel(const Job &job)
{
    if (!job.study.empty())
        return job.study;
    const json::Value doc = json::Value::parse(job.text);
    std::string label = doc.getString("name", "") + " " +
                        std::to_string(spec::sweepDocumentFromJson(job.text)
                                           .grid.points()) +
                        " points";
    if (job.shardCount > 1)
        label += " shard " + std::to_string(job.shardIndex) + "/" +
                 std::to_string(job.shardCount);
    return label;
}

/** Per-layer metrics from the spans and the replay counters. */
void
layerMetrics(Metrics &m, const Trace &trace, const ReplayCounters &c,
             long restarts, double overhead_pct)
{
    const auto self = trace.selfTimes();
    auto total = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second.first;
    };
    auto calls = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? size_t{0} : it->second.second;
    };
    auto mean = [&](const char *name, double scale) {
        const size_t n = calls(name);
        return n == 0 ? 0.0 : total(name) / static_cast<double>(n) * scale;
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    m.add("spec.parse_ms", mean("spec.parse", 1e3), "ms");
    m.add("spec.expand_us",
          ratio(total("spec.source") + total("spec.expand"),
                static_cast<double>(calls("spec.expand"))) * 1e6,
          "us");
    m.add("spec.materialize_us", mean("spec.materialize", 1e6), "us");
    m.add("analysis.lint_ms", mean("analysis.lint", 1e3), "ms");
    m.add("analysis.prefilter_ms", mean("analysis.prefilter", 1e3), "ms");
    m.add("explore.evaluate_us", mean("explore.evaluate", 1e6), "us");
    m.add("explore.render_us", mean("explore.render", 1e6), "us");
    m.add("explore.stages_run", static_cast<double>(c.stagesRun), "count");
    m.add("explore.full_build_share",
          ratio(static_cast<double>(c.fullBuilds),
                static_cast<double>(c.points)),
          "ratio");
    m.add("explore.lru_hit_ratio",
          ratio(static_cast<double>(c.lruHits),
                static_cast<double>(c.lruHits + c.lruMisses)),
          "ratio");
    m.add("core.map_us", mean("core.map", 1e6), "us");
    m.add("core.analog_us", mean("core.analog", 1e6), "us");
    m.add("core.digital_us", mean("core.digital", 1e6), "us");
    m.add("core.cyclesim_us", mean("core.cyclesim", 1e6), "us");
    m.add("core.timing_us", mean("core.timing", 1e6), "us");
    m.add("core.energy_us", mean("core.energy", 1e6), "us");
    const double ticked = static_cast<double>(c.sim.cyclesTicked);
    const double jumped = static_cast<double>(c.sim.cyclesFastForwarded);
    m.add("digital.cycles_ticked", ticked, "count");
    m.add("digital.cycles_jumped", jumped, "count");
    m.add("digital.jump_share", ratio(jumped, ticked + jumped), "ratio");
    m.add("digital.fallbacks", static_cast<double>(c.sim.fallbacks),
          "count");
    m.add("serve.start_ms", mean("serve.start", 1e3), "ms");
    m.add("serve.admit_ms", mean("serve.admit", 1e3), "ms");
    m.add("serve.first_line_ms", mean("serve.first_line", 1e3), "ms");
    m.add("serve.stream_ms", mean("serve.stream", 1e3), "ms");
    m.add("serve.end_ms", mean("serve.end", 1e3), "ms");
    m.add("serve.worker_restarts", static_cast<double>(restarts), "count");
    m.add("trace.overhead_pct", overhead_pct, "%");
}

int
runBenchmark(const Options &o)
{
    const bool served = o.workload == "served";
    const size_t count = jobCount(o);
    std::filesystem::create_directories(o.tmpDir);
    Trace trace;

    // ---- set-up, several times over; setup_s is the median
    std::vector<double> setups;
    JobList list;
    std::unique_ptr<Daemon> daemon;
    if (served) {
        for (size_t r = 0; r < kSetupRuns; ++r) {
            const Clock::time_point t0 = Clock::now();
            list = makeJobs(o.workload, o.root, o.seed, count);
            auto d = std::make_unique<Daemon>(
                CAMJ_SERVE_BIN, daemonDir(o, std::to_string(r)));
            const ServedRun warm =
                submitOnce(d->port(), list.warmup, nullptr, 0);
            if (!warm.error.empty())
                throw std::runtime_error("warm-up job failed: " +
                                         warm.error);
            setups.push_back(secondsBetween(t0, Clock::now()));
            trace.add("serve.start", -1, 0, d->spawned(), d->ready());
            if (r + 1 == kSetupRuns)
                daemon = std::move(d);
        }
    } else {
        list = makeJobs(o.workload, o.root, o.seed, count);
        runSweepJob(list.warmup);
    }
    Checker checker(o, list,
                    o.workload == "studies" ? loadGoldenEnergies(o.root)
                                            : GoldenEnergies{});
    long restarts = 0;
    Metrics m;

    if (!o.trace) {
        // ---- the timed jobs. In-process set-ups run in fresh
        // processes between the rounds, so their median samples the
        // whole run rather than one moment of it.
        const size_t round_count = roundCount(o);
        std::vector<Pass> rounds;
        if (served)
            rounds.push_back(runServedPass(daemon->port(), list, count,
                                           checker, nullptr, restarts));
        for (size_t r = 0; !served && r < round_count; ++r) {
            for (size_t k = r; k < kSetupRuns; k += round_count)
                setups.push_back(probeSetup(o));
            rounds.push_back(runInProcessPass(list, count, checker, nullptr));
        }
        const double rss = served ? daemon->stop() : peakRssMb();
        size_t attempted = 0;
        size_t failed = checker.finish();
        for (const Pass &p : rounds) {
            attempted += p.attempted;
            failed += p.failed;
        }
        // Served: the daemon's wall-clock rate under two clients, and
        // latencies per job. In-process: one engine thread's rate, and
        // latencies per document, each at its document's fastest run.
        const std::vector<JobTime> best =
            served ? rounds.front().done : fastestRuns(rounds, list);
        const double rate = served ? rateOf(best, count)
                                   : serialRate(best, count);
        const ValidationSummary fig07 = runValidation();
        std::vector<double> first, latency;
        for (const JobTime &t : best) {
            first.push_back(t.first);
            latency.push_back(t.latency);
        }
        m.add("designs_per_s", rate, "1/s");
        m.add("first_result_ms", median(first) * 1e3, "ms");
        m.add("job_latency_p50_ms", median(latency) * 1e3, "ms");
        m.add("job_latency_p95_ms", percentile(latency, 95.0) * 1e3, "ms");
        m.add("peak_rss_mb", rss, "MB");
        m.add("setup_s", median(setups), "s");
        m.add("fig07_mape_pct", fig07.mapePct, "%");
        m.add("fig07_corr", fig07.pearson, "r");
        const size_t n = latency.size();
        std::printf("%s seed %llu: %zu jobs x %zu rounds attempted, %zu "
                    "failed; latency quantiles over %zu distinct %s "
                    "(p95: %zu beyond)\n",
                    o.workload.c_str(),
                    static_cast<unsigned long long>(o.seed), count,
                    round_count, failed, n, served ? "jobs" : "documents",
                    n - std::min(n, static_cast<size_t>(std::ceil(
                                        0.95 * static_cast<double>(n)))));
        m.print(stdout);
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                    "\"metrics\": %s}\n",
                    failed == 0 ? "true" : "false", attempted, failed,
                    m.json().c_str());
        return 0;
    }

    // ---- the traced run: the first quarter of the jobs untraced, then
    // every job with each layer call recorded; the overhead compares
    // the two on that quarter.
    const size_t quarter = std::max<size_t>(1, count / 4);
    ReplayCounters counters;
    Pass u, t;
    if (served) {
        u = runServedPass(daemon->port(), list, quarter, checker, nullptr,
                          restarts);
        daemon->stop();
        daemon.reset();
        Daemon d(CAMJ_SERVE_BIN, daemonDir(o, "traced"));
        trace.add("serve.start", -1, 0, d.spawned(), d.ready());
        restarts = 0;
        t = runServedPass(d.port(), list, count, checker, &trace, restarts);
        d.stop();
        // The daemon-side calls, replayed in-process one at a time.
        for (size_t i = 0; i < std::min(count, kServedReplayJobs); ++i) {
            try {
                const std::string why = checker.check(
                    i, replayJob(list.job(i), true, i, trace, counters));
                if (!why.empty())
                    t.fail(i, why);
            } catch (const std::exception &e) {
                t.fail(i, e.what());
            }
        }
    } else {
        u = runInProcessPass(list, quarter, checker, nullptr);
        std::vector<Tracing> tracing(kInProcessStreams);
        t = runInProcessPass(list, count, checker, &tracing);
        for (const Tracing &tr : tracing) {
            trace.append(tr.trace);
            counters.sim += tr.counters.sim;
            counters.points += tr.counters.points;
            counters.fullBuilds += tr.counters.fullBuilds;
            counters.stagesRun += tr.counters.stagesRun;
            counters.lruHits += tr.counters.lruHits;
            counters.lruMisses += tr.counters.lruMisses;
        }
        // The serve layer, measured on one canonical sweep.
        Daemon d(CAMJ_SERVE_BIN, daemonDir(o, "probe"));
        trace.add("serve.start", -1, 0, d.spawned(), d.ready());
        const ServedRun probe =
            submitOnce(d.port(), list.probe, &trace, count);
        d.stop();
        if (!probe.error.empty())
            t.fail(count, "serve probe: " + probe.error);
        restarts += probe.workerRestarts;
    }
    traceFullBuilds(list.docs, kFullBuildPoints, o.seed, trace);
    const size_t failed = u.failed + t.failed + checker.finish();

    const double untraced = serialRate(u.done, quarter);
    const double traced = serialRate(t.done, quarter);
    const double overhead = 100.0 * (untraced - traced) / untraced;
    layerMetrics(m, trace, counters, restarts, overhead);

    std::filesystem::create_directories(o.spansDir);
    const std::string spans = o.spansDir + "/" + o.workload + "-seed" +
                              std::to_string(o.seed) + ".jsonl";
    std::vector<std::string> labels;
    for (size_t i = 0; i < list.size(); ++i)
        labels.push_back(jobLabel(list.job(i)));
    trace.write(spans, labels);

    std::printf("%s seed %llu traced: %zu jobs attempted, %zu failed; "
                "%.1f designs/s traced vs %.1f untraced over the first "
                "%zu jobs (%.1f%% overhead); %zu spans in %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                t.attempted, failed, traced, untraced, quarter, overhead,
                trace.size(), spans.c_str());
    m.print(stdout);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false", t.attempted, failed,
                m.json().c_str());
    return 0;
}

/** The child side of probeSetup. */
int
runSetupProbe(const Options &o)
{
    const JobList list = makeJobs(o.workload, o.root, o.seed, jobCount(o));
    if (o.workload == "studies")
        loadGoldenEnergies(o.root);
    runSweepJob(list.warmup);
    std::fputs("ready\n", stdout);
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setLoggingEnabled(false);
    const Options o = parseArgs(argc, argv);
    try {
        return o.setupProbe ? runSetupProbe(o) : runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

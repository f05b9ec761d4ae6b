#include "explore/sweep.h"

#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace camj
{

BreakdownRow
SweepResult::breakdown(const std::string &label) const
{
    return breakdownOf(label.empty() ? designName : label, report);
}

double
SweepResult::powerDensityMwPerMm2() const
{
    if (!feasible)
        fatal("SweepResult %s: power density of an infeasible point",
              designName.c_str());
    return camj::powerDensityMwPerMm2(report);
}

Energy
SweepResult::totalEnergy() const
{
    if (!feasible)
        return 0.0;
    return report.total() * static_cast<double>(frames);
}

SweepEngine::SweepEngine(SweepOptions options)
    : options_(options)
{
    if (options_.threads < 0)
        fatal("SweepEngine: negative thread count %d",
              options_.threads);
    // Infeasibility is data inside a sweep.
    options_.sim.checkMode = CheckMode::Report;
}

int
SweepEngine::threadsFor(int requested, size_t jobs,
                        unsigned hardware_concurrency)
{
    if (hardware_concurrency == 0)
        hardware_concurrency = 1;
    size_t n = requested > 0
                   ? static_cast<size_t>(requested)
                   : static_cast<size_t>(hardware_concurrency);
    if (n > jobs)
        n = jobs;
    return static_cast<int>(n == 0 ? 1 : n);
}

int
SweepEngine::effectiveThreads(size_t jobs) const
{
    // hardware_concurrency() reads sysfs: ask only when it is used.
    return threadsFor(options_.threads, jobs,
                      options_.threads == 0
                          ? std::thread::hardware_concurrency()
                          : 0);
}

namespace
{

/**
 * Point @p index's result from @p evaluate, which returns its
 * SimulationOutcome. ConfigErrors are folded into the outcome by
 * CheckMode::Report; anything else (InternalError, bad_alloc) is a
 * CamJ bug, captured identically on the serial and parallel paths so
 * the same batch can never behave differently across thread counts.
 */
template <typename Evaluate>
SweepResult
resultOf(size_t index, const std::string &name, Evaluate evaluate)
{
    SweepResult r;
    r.index = index;
    r.designName = name;
    try {
        SimulationOutcome out = evaluate();
        r.feasible = out.feasible;
        r.error = std::move(out.error);
        r.ruleCode = std::move(out.ruleCode);
        r.report = std::move(out.report);
        r.frames = out.frames;
        r.snrPenaltyDb = out.snrPenaltyDb;
        r.simStats = out.simStats;
    } catch (const std::exception &e) {
        r.feasible = false;
        r.error = std::string("internal error: ") + e.what();
        r.ruleCode = "CAMJ-D003";
    }
    return r;
}

} // namespace

StreamStats
SweepEngine::runStream(const spec::SpecSource &source, ResultSink &sink,
                       const CancelToken *cancel) const
{
    const size_t total = source.totalPoints();
    const int workers = effectiveThreads(total);

    StreamStats stats;
    std::atomic<bool> stop{false};
    // The one cursor over [0, total): each worker claims the next
    // index and asks the source for that point.
    std::atomic<size_t> cursor{0};
    std::atomic<size_t> produced{0};
    std::atomic<size_t> delivered{0};
    std::atomic<bool> sink_cancelled{false};
    std::mutex sink_mutex;
    std::mutex error_mutex;
    std::mutex stats_mutex; // guards the diagnostics in `stats`
    std::exception_ptr first_error; // guarded by error_mutex

    auto deliver = [&](SweepResult result) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        // In-flight results completing after a cancellation are
        // dropped: the sink said stop, so it never sees another one.
        if (stop.load(std::memory_order_relaxed))
            return;
        if (sink.accept(std::move(result))) {
            delivered.fetch_add(1, std::memory_order_relaxed);
        } else {
            stop.store(true, std::memory_order_relaxed);
            sink_cancelled.store(true, std::memory_order_relaxed);
        }
    };

    auto worker = [&] {
        CycleSimStats local_sim;
        // The worker's evaluator: its cycle-sim memo spans the points
        // THIS worker takes.
        std::optional<IncrementalEvaluator> evaluator;
        // The worker's point, kept across points so a source can
        // rebuild the Design in it in place.
        spec::SpecPoint point;
        // Anything escaping the source or the sink (a generator
        // throwing, a JsonlSink write failure) must not unwind a
        // std::thread — that would terminate the process. Capture
        // the first error, stop the sweep, rethrow on the caller.
        try {
            // Inside the try: invalid simulation options throw from
            // the evaluator constructor.
            evaluator.emplace(options_.sim);
            while (!stop.load(std::memory_order_relaxed)) {
                if (cancel != nullptr && cancel->cancelled()) {
                    stop.store(true, std::memory_order_relaxed);
                    break;
                }
                const size_t index =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (index >= total)
                    break;
                source.pointAt(index, point);
                produced.fetch_add(1, std::memory_order_relaxed);
                SweepResult result = resultOf(
                    index, point.spec.name,
                    [&] { return evaluator->evaluate(point); });
                local_sim += result.simStats;
                deliver(std::move(result));
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error)
                first_error = std::current_exception();
            stop.store(true, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> lock(stats_mutex);
        stats.cycleSim += local_sim;
        if (evaluator) {
            stats.cycleSimMemo += evaluator->memo().stats();
            stats.passes += evaluator->passStats();
        }
    };

    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(workers));
        for (int t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    stats.produced = produced.load(std::memory_order_relaxed);
    stats.delivered = delivered.load(std::memory_order_relaxed);
    stats.cancelled = sink_cancelled.load(std::memory_order_relaxed);
    if (cancel != nullptr && cancel->cancelled())
        stats.cancelled = true;
    sink.finish();
    if (first_error)
        std::rethrow_exception(first_error);
    return stats;
}

namespace
{

/** Non-owning source over the batch API's input vector. */
class RefVectorSource : public spec::SpecSource
{
  public:
    explicit RefVectorSource(const std::vector<spec::DesignSpec> &specs)
        : specs_(specs)
    {
    }

    size_t totalPoints() const override { return specs_.size(); }
    spec::DesignSpec at(size_t index) const override
    {
        return specs_.at(index);
    }

  private:
    const std::vector<spec::DesignSpec> &specs_;
};

} // namespace

std::vector<SweepResult>
SweepEngine::runSerial(const std::vector<spec::DesignSpec> &specs) const
{
    std::vector<SweepResult> results(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        results[i] = resultOf(i, specs[i].name, [&] {
            return Simulator(options_.sim).run(specs[i]);
        });
    }
    return results;
}

std::vector<SweepResult>
SweepEngine::run(const std::vector<spec::DesignSpec> &specs) const
{
    RefVectorSource source(specs);
    CollectSink sink;
    runStream(source, sink);
    return sink.take();
}

StreamStats
runShard(const spec::SpecSource &source,
         const spec::ShardAssignment &shard, int threads,
         const SimulationOptions &sim, ResultSink &sink,
         const CancelToken *cancel)
{
    spec::ShardSpecSource points(source, shard);
    // Local stream order -> global grid identity: ascending lines,
    // which the merge's one-line lookahead relies on.
    ReindexSink global(sink, [&shard](size_t local) {
        return shard.globalIndex(local);
    });
    InOrderSink ordered(global);
    return SweepEngine({.threads = threads, .sim = sim})
        .runStream(points, ordered, cancel);
}

std::string
formatSweepTable(const std::vector<SweepResult> &results)
{
    std::vector<BreakdownRow> rows;
    std::ostringstream infeasible;
    for (const SweepResult &r : results) {
        if (r.feasible)
            rows.push_back(r.breakdown());
        else
            infeasible << strprintf("%-22s -- infeasible: %s\n",
                                    r.designName.c_str(),
                                    r.error.c_str());
    }
    std::string out = formatBreakdownTable(rows);
    out += infeasible.str();
    return out;
}

} // namespace camj

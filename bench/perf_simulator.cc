/**
 * @file
 * google-benchmark microbenchmarks for the simulator itself: how fast
 * CamJ evaluates designs, both one at a time and as batched sweeps
 * through the SweepEngine.
 *
 * Besides the interactive benchmark output, the binary always writes
 * BENCH_simulator.json (override the path with the BENCH_JSON_PATH
 * environment variable; the resolved absolute path is printed on
 * exit): per-op costs and heap-allocation counts for the JSON
 * hot-path primitives (specOps: parse/dump/clone/compare/hash over
 * the canonical detector document), designs/sec for a serial sweep
 * vs. a >= 4-thread SweepEngine run over the same spec batch, the
 * streaming pipeline over that batch, a lazily expanded SweepGrid
 * (with the expansion's heap allocations per point), the sharded
 * multi-process pipeline (1 process vs. 4 forked shard workers over
 * the 108-point grid, plus the merge), the statically prefiltered sweep (a
 * widened grid with provably infeasible axis values, pruned by
 * GridAnalyzer with zero tolerated false positives), the strided
 * sweep (the cycle-sim memo's hits and misses and the cycles each
 * pass ticks over the canonical grid with a 599-word ActBuf, in
 * row-major and stride-12 order), the 27 paper studies' cycles
 * ticked per pass and pass-B stall-check routes, the heap
 * allocations of lowering each study's one-point document
 * (studyFrontEnd), of linting it (lint) and of materializing it
 * (materialize), those of a canonical grid point's materialization
 * on a worker's point path and of writing a result line (render),
 * those of a canonical grid point through runShard and through the
 * worker's evaluator, feasible or D002 (pointLoop), the Fig. 7
 * validation
 * MAPE and correlation, the cycle sim's ticking rate (a
 * cycle-dominated frame, every cycle ticked), and a per-stage
 * wall-clock profile of EvalPipeline over the canonical grid, so CI
 * can track the simulator's evaluation-throughput trajectory across
 * PRs. Every memo section hard-fails unless its output is
 * byte-identical to a full rebuild.
 *
 * `--points N` scales the artifact workload (batch copies and grid
 * size) so CI can run a quick smoke sweep: perf_simulator --points 8.
 * The strided section always runs the full 108-point grid so its
 * tracked counts stay exact.
 */

#include <benchmark/benchmark.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "analysis/grid_analyzer.h"
#include "common/logging.h"
#include "core/design.h"
#include "core/pipeline.h"
#include "serve/client.h"
#include "serve/server.h"
#include "digital/cyclesim.h"
#include "explore/incremental.h"
#include "explore/simulator.h"
#include "explore/jsonl.h"
#include "explore/sweep.h"
#include "functional/executor.h"
#include "spec/grid.h"
#include "spec/json.h"
#include "spec/samples.h"
#include "spec/shard.h"
#include "usecases/edgaze.h"
#include "usecases/rhythmic.h"
#include "usecases/studies.h"
#include "validation/harness.h"

// ----------------------------------------------------- allocation spy

/** Heap-allocation counter behind the specOps section: this binary
 *  overrides the global (non-aligned) new/delete pair so allocation
 *  counts ride along with the per-op timings. Counting only — sizes
 *  and latency are untouched. The counter is process-wide, so it is
 *  only meaningful around single-threaded measurement loops. */
static std::atomic<uint64_t> g_heapAllocs{0};

void *
operator new(std::size_t size)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace camj;

namespace
{

/** Artifact workload size; override with --points N. */
int g_points = 64;
/** True when --points was given: smoke runs also shrink the
 *  (otherwise canonical 108-point) sharded section. */
bool g_points_set = false;

/** The sweep workload: the canonical sample detector over a fps x
 *  node grid spanning the feasibility boundary, repeated `copies`
 *  times for a larger batch. */
std::vector<spec::DesignSpec>
sweepBatch(int copies)
{
    std::vector<spec::DesignSpec> specs;
    for (int c = 0; c < copies; ++c) {
        std::vector<spec::DesignSpec> grid = spec::sampleDetectorGrid(
            {180, 110, 65, 45}, {1.0, 30.0, 120.0, 960.0});
        for (spec::DesignSpec &s : grid)
            specs.push_back(std::move(s));
    }
    return specs;
}

/** A sweepGrid document over the sample detector: an fps axis sized
 *  so the grid has ~`points` design points, times the buffer node. */
spec::SweepDocument
gridDocument(int points)
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    spec::GridAxis rate{"rate", "fps", {}};
    const int nrates = points / 4 > 0 ? points / 4 : 1;
    for (int i = 0; i < nrates; ++i)
        rate.values.push_back(
            json::Value(1.0 + (119.0 * i) / nrates));
    spec::GridAxis node{"bufnode", "memories[ActBuf].nodeNm",
                        {json::Value(180), json::Value(110),
                         json::Value(65), json::Value(45)}};
    doc.grid.axes = {std::move(rate), std::move(node)};
    return doc;
}

// -------------------------------------------------- per-op measuring

/** One measured operation: wall-clock and heap allocations, both per
 *  call. */
struct OpCost
{
    double nsPerOp = 0.0;
    double allocsPerOp = 0.0;
};

/** Time @p fn(i) over @p iters calls on this thread, counting heap
 *  allocations through the binary's operator-new spy. */
template <typename Fn>
OpCost
measureOp(size_t iters, Fn &&fn)
{
    for (size_t i = 0; i < 3 && i < iters; ++i)
        fn(i); // warm-up
    const uint64_t allocs0 =
        g_heapAllocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i)
        fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    const uint64_t allocs1 =
        g_heapAllocs.load(std::memory_order_relaxed);
    OpCost c;
    const double n = static_cast<double>(iters);
    c.nsPerOp =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / n;
    c.allocsPerOp = static_cast<double>(allocs1 - allocs0) / n;
    return c;
}

/** @p x rounded to two decimals: an allocation count per point that an
 *  exact floor can compare. */
double
hundredths(double x)
{
    return std::round(x * 100.0) / 100.0;
}

/** A stream buffer that drops what it is given: a sink's output that
 *  only its cost matters for. */
class DiscardBuf : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

/** Write one {nsPerOp, allocsPerOp, opsPerSec} group under @p key. */
void
setOpCost(json::Value &obj, const char *key, const OpCost &c)
{
    json::Value op = json::Value::makeObject();
    op.set("nsPerOp", json::Value(c.nsPerOp));
    op.set("allocsPerOp", json::Value(c.allocsPerOp));
    op.set("opsPerSec", json::Value(1e9 / c.nsPerOp));
    obj.set(key, std::move(op));
}

void
BM_RhythmicSimulate(benchmark::State &state)
{
    setLoggingEnabled(false);
    auto d = buildRhythmic(SensorVariant::TwoDIn, 130);
    for (auto _ : state) {
        EnergyReport r = d->simulate();
        benchmark::DoNotOptimize(r.total());
    }
}
BENCHMARK(BM_RhythmicSimulate)->Unit(benchmark::kMillisecond);

void
BM_EdgazeSimulate(benchmark::State &state)
{
    setLoggingEnabled(false);
    auto d = buildEdgaze(EdgazeVariant::ThreeDIn, 65);
    for (auto _ : state) {
        EnergyReport r = d->simulate();
        benchmark::DoNotOptimize(r.total());
    }
}
BENCHMARK(BM_EdgazeSimulate)->Unit(benchmark::kMillisecond);

void
BM_SpecMaterialize(benchmark::State &state)
{
    setLoggingEnabled(false);
    spec::DesignSpec s = spec::sampleDetectorSpec(30.0, 65);
    for (auto _ : state) {
        Design d = s.materialize();
        benchmark::DoNotOptimize(d.name().size());
    }
}
BENCHMARK(BM_SpecMaterialize)->Unit(benchmark::kMillisecond);

void
BM_SpecJsonRoundTrip(benchmark::State &state)
{
    setLoggingEnabled(false);
    spec::DesignSpec s = spec::sampleDetectorSpec(30.0, 65);
    for (auto _ : state) {
        spec::DesignSpec back = spec::fromJson(spec::toJson(s));
        benchmark::DoNotOptimize(back.name.size());
    }
}
BENCHMARK(BM_SpecJsonRoundTrip)->Unit(benchmark::kMillisecond);

void
BM_SweepSerial(benchmark::State &state)
{
    setLoggingEnabled(false);
    std::vector<spec::DesignSpec> specs = sweepBatch(1);
    SweepEngine engine(SweepOptions{.threads = 1});
    for (auto _ : state) {
        auto results = engine.run(specs);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_SweepSerial)->Unit(benchmark::kMillisecond);

void
BM_SweepThreaded(benchmark::State &state)
{
    setLoggingEnabled(false);
    std::vector<spec::DesignSpec> specs = sweepBatch(1);
    SweepEngine engine(
        SweepOptions{.threads = static_cast<int>(state.range(0))});
    for (auto _ : state) {
        auto results = engine.run(specs);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_SweepThreaded)->Arg(4)->Unit(benchmark::kMillisecond);

void
BM_SweepStreaming(benchmark::State &state)
{
    setLoggingEnabled(false);
    std::vector<spec::DesignSpec> specs = sweepBatch(1);
    SweepOptions options;
    options.threads = static_cast<int>(state.range(0));
    SweepEngine engine(options);
    for (auto _ : state) {
        spec::VectorSpecSource source(specs);
        size_t delivered = 0;
        CallbackSink count([&](SweepResult) {
            ++delivered;
            return true;
        });
        engine.runStream(source, count);
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_SweepStreaming)->Arg(4)->Unit(benchmark::kMillisecond);

void
BM_GridExpansion(benchmark::State &state)
{
    setLoggingEnabled(false);
    spec::SweepDocument doc = gridDocument(256);
    for (auto _ : state) {
        const spec::GridSpecSource source = doc.source();
        for (size_t i = 0; i < source.totalPoints(); ++i) {
            const spec::DesignSpec s = source.at(i);
            benchmark::DoNotOptimize(s.fps);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(doc.grid.points()));
}
BENCHMARK(BM_GridExpansion)->Unit(benchmark::kMillisecond);

void
BM_UsecaseSpecSweep(benchmark::State &state)
{
    setLoggingEnabled(false);
    std::vector<spec::DesignSpec> specs = allPaperStudySpecs();
    SweepEngine engine(
        SweepOptions{.threads = static_cast<int>(state.range(0))});
    for (auto _ : state) {
        auto results = engine.run(specs);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_UsecaseSpecSweep)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_CycleSimThroughput(benchmark::State &state)
{
    const int64_t words = state.range(0);
    for (auto _ : state) {
        CycleSim sim;
        int m = sim.addMemory({.name = "m", .capacityWords = 4096});
        sim.addSource({.name = "s", .totalWords = words,
                       .wordsPerCycle = 4.0, .memIdx = m});
        SimUnit u;
        u.name = "u";
        u.inputs.push_back({.memIdx = m, .needWords = 4,
                            .readWords = 4, .retireWords = 4.0,
                            .expectedWords =
                                static_cast<double>(words)});
        u.outMemIdx = -1;
        u.outWords = 1;
        u.totalFires = words / 4;
        u.latency = 2;
        sim.addUnit(u);
        CycleSimResult r = sim.run();
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations() * words);
}
BENCHMARK(BM_CycleSimThroughput)->Arg(1 << 14)->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

void
BM_FunctionalConvolution(benchmark::State &state)
{
    SwGraph g;
    StageId in = g.addStage({.name = "in", .op = StageOp::Input,
                             .outputSize = {128, 128, 1}});
    StageId conv = g.addStage({.name = "conv", .op = StageOp::Conv2d,
                               .inputSize = {128, 128, 1},
                               .outputSize = {126, 126, 8},
                               .kernel = {3, 3, 1},
                               .stride = {1, 1, 1}});
    g.connect(in, conv);

    std::map<StageId, Image> inputs;
    Image img({128, 128, 1});
    img.fillPattern(3);
    inputs.emplace(in, std::move(img));

    for (auto _ : state) {
        Executor ex(g);
        ex.run(inputs);
        benchmark::DoNotOptimize(ex.stats(conv).ops);
    }
}
BENCHMARK(BM_FunctionalConvolution)->Unit(benchmark::kMillisecond);

void
BM_FullValidationSuite(benchmark::State &state)
{
    setLoggingEnabled(false);
    for (auto _ : state) {
        ValidationSummary s = runValidation();
        benchmark::DoNotOptimize(s.pearson);
    }
}
BENCHMARK(BM_FullValidationSuite)->Unit(benchmark::kMillisecond);

/** Wall-clock one sweep run; returns seconds. */
double
timeSweep(const SweepEngine &engine,
          const std::vector<spec::DesignSpec> &specs, bool serial)
{
    const auto t0 = std::chrono::steady_clock::now();
    auto results = serial ? engine.runSerial(specs) : engine.run(specs);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(results.size());
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Best-of-3 serial vs. threaded wall-clock of one spec batch. */
struct SweepTiming
{
    double serialSeconds = 1e30;
    double threadedSeconds = 1e30;
};

SweepTiming
measureSweep(const SweepEngine &serial_engine,
             const SweepEngine &threaded_engine,
             const std::vector<spec::DesignSpec> &specs)
{
    // Warm-up, then best-of-3 to tame scheduler noise.
    timeSweep(serial_engine, specs, true);
    SweepTiming t;
    for (int rep = 0; rep < 3; ++rep) {
        t.serialSeconds = std::min(
            t.serialSeconds, timeSweep(serial_engine, specs, true));
        t.threadedSeconds = std::min(
            t.threadedSeconds,
            timeSweep(threaded_engine, specs, false));
    }
    return t;
}

/** Write one designPoints/serialSweep/threadedSweep/speedup group
 *  into @p obj — the shared shape of both artifact sections. */
void
setSweepMembers(json::Value &obj, size_t points, int threads,
                const SweepTiming &t)
{
    const double n = static_cast<double>(points);
    obj.set("designPoints",
            json::Value(static_cast<int64_t>(points)));

    json::Value serial = json::Value::makeObject();
    serial.set("seconds", json::Value(t.serialSeconds));
    serial.set("designsPerSec", json::Value(n / t.serialSeconds));
    obj.set("serialSweep", std::move(serial));

    json::Value threaded = json::Value::makeObject();
    threaded.set("threads", json::Value(threads));
    threaded.set("seconds", json::Value(t.threadedSeconds));
    threaded.set("designsPerSec", json::Value(n / t.threadedSeconds));
    obj.set("threadedSweep", std::move(threaded));

    obj.set("speedup",
            json::Value(t.serialSeconds / t.threadedSeconds));
}

/** Wall-clock one streaming run over @p specs; returns seconds. */
double
timeStreaming(const SweepEngine &engine,
              const std::vector<spec::DesignSpec> &specs)
{
    spec::VectorSpecSource source(specs);
    size_t delivered = 0;
    CallbackSink count([&](SweepResult) {
        ++delivered;
        return true;
    });
    const auto t0 = std::chrono::steady_clock::now();
    engine.runStream(source, count);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(delivered);
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Wall-clock one lazily expanded grid sweep; returns seconds. */
double
timeGridSweep(const SweepEngine &engine, const spec::SweepDocument &doc)
{
    spec::GridSpecSource source = doc.source();
    size_t delivered = 0;
    CallbackSink count([&](SweepResult) {
        ++delivered;
        return true;
    });
    const auto t0 = std::chrono::steady_clock::now();
    engine.runStream(source, count);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(delivered);
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The sharding workload: the canonical 108-point study (rate x
 *  buffer node x duty cycle). An explicit --points N shrinks the
 *  rate axis so CI smoke runs stay quick (~N points, >= 12). */
spec::SweepDocument
shardedStudyDocument()
{
    spec::SweepDocument doc = spec::sampleDetectorStudy();
    if (g_points_set) {
        auto &rates = doc.grid.axes[0].values;
        const size_t nrates = std::max<size_t>(
            1, std::min(rates.size(),
                        static_cast<size_t>(g_points) / 12));
        rates.resize(nrates);
    }
    return doc;
}

/** One shard's JSONL bytes through the call `camj_sweep run` makes,
 *  on 1 thread — the unit of work one shard process performs. */
std::string
runShardJsonl(const spec::SweepDocument &doc,
              const spec::ShardAssignment &assignment)
{
    std::ostringstream out;
    JsonlSink lines(out);
    runShard(doc.source(), assignment, 1, {}, lines);
    return out.str();
}

/** Wall-clock the whole study in THIS process (the 1-process
 *  baseline); @p bytes receives the JSONL the merge must reproduce. */
double
timeSingleProcessShard(const spec::SweepDocument &doc,
                       std::string *bytes)
{
    const spec::ShardAssignment whole =
        spec::planShards(doc.grid.points(), 1).shards.front();
    const auto t0 = std::chrono::steady_clock::now();
    std::string out = runShardJsonl(doc, whole);
    const auto t1 = std::chrono::steady_clock::now();
    if (bytes != nullptr)
        *bytes = std::move(out);
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Wall-clock the study as @p plan.shards.size() forked worker
 * PROCESSES (one 1-thread engine each, writing @p shard_paths), the
 * real camj_sweep deployment shape minus ssh. Returns a negative
 * number when a worker fails.
 */
double
timeForkedShards(const spec::SweepDocument &doc,
                 const spec::ShardPlan &plan,
                 const std::vector<std::string> &shard_paths)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<pid_t> children;
    for (size_t k = 0; k < plan.shards.size(); ++k) {
        const pid_t pid = fork();
        if (pid < 0) {
            std::fprintf(stderr, "error: fork failed for shard %zu\n",
                         k);
            return -1.0;
        }
        if (pid == 0) {
            // Worker process: evaluate one shard, write its file,
            // leave without running parent-owned cleanup.
            std::ofstream out(shard_paths[k], std::ios::binary);
            out << runShardJsonl(doc, plan.shards[k]);
            out.flush();
            _exit(out ? 0 : 1);
        }
        children.push_back(pid);
    }
    bool ok = true;
    for (pid_t pid : children) {
        int status = 0;
        if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            ok = false;
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (!ok) {
        std::fprintf(stderr, "error: a shard worker failed\n");
        return -1.0;
    }
    return std::chrono::duration<double>(t1 - t0).count();
}

/** One JSONL line for a design point evaluated outside the engine —
 *  the same bytes `camj_sweep run` would emit for it. */
std::string
lineFor(size_t index, const spec::DesignSpec &spec,
        SimulationOutcome out)
{
    SweepResult r;
    r.index = index;
    r.designName = spec.name;
    r.feasible = out.feasible;
    r.error = std::move(out.error);
    r.ruleCode = std::move(out.ruleCode);
    r.report = std::move(out.report);
    r.frames = out.frames;
    r.snrPenaltyDb = out.snrPenaltyDb;
    return sweepResultToJsonl(r);
}

/** Write a seconds/designsPerSec pair into @p obj under @p key. */
void
setTimedRun(json::Value &obj, const char *key, size_t points,
            double seconds)
{
    json::Value run = json::Value::makeObject();
    run.set("seconds", json::Value(seconds));
    run.set("designsPerSec",
            json::Value(static_cast<double>(points) / seconds));
    obj.set(key, std::move(run));
}

/** Write what the cycle-sim passes of @p p did into @p obj: cycles
 *  ticked in total and per pass, how pass A's latency was answered
 *  and how pass B's stall check was. */
void
setPassStats(json::Value &obj, const PassSimStats &p)
{
    obj.set("cyclesTicked",
            json::Value(p.passA.cyclesTicked + p.passB.cyclesTicked));
    json::Value pass_a = json::Value::makeObject();
    pass_a.set("cyclesTicked", json::Value(p.passA.cyclesTicked));
    pass_a.set("closedForm",
               json::Value(static_cast<int64_t>(p.passAClosedForm)));
    pass_a.set("simulated",
               json::Value(static_cast<int64_t>(p.passASimulated)));
    obj.set("passA", std::move(pass_a));
    json::Value pass_b = json::Value::makeObject();
    pass_b.set("cyclesTicked", json::Value(p.passB.cyclesTicked));
    obj.set("passB", std::move(pass_b));
    const StallRouteCounts &routes = p.stallRoutes;
    json::Value stall_check = json::Value::makeObject();
    stall_check.set("stallFree",
                    json::Value(static_cast<int64_t>(routes.stallFree)));
    stall_check.set("bounded",
                    json::Value(static_cast<int64_t>(routes.bounded)));
    stall_check.set("cone",
                    json::Value(static_cast<int64_t>(routes.cone)));
    stall_check.set("fullTopology", json::Value(static_cast<int64_t>(
                                        routes.fullTopology)));
    obj.set("stallCheck", std::move(stall_check));
}

/**
 * The CI artifact: serial vs. threaded sweep throughput over the same
 * batch, the streaming pipeline over that same spec set, and a lazily
 * expanded SweepGrid, in designs/sec. Returns false when the file
 * cannot be written, so CI fails loudly instead of trusting a missing
 * artifact.
 */
bool
writeBenchJson()
{
    setLoggingEnabled(false);

    const int threads = 4;
    const int copies = g_points / 16 > 0 ? g_points / 16 : 1;
    std::vector<spec::DesignSpec> specs = sweepBatch(copies);
    SweepEngine serial_engine(SweepOptions{.threads = 1});
    SweepEngine threaded_engine(SweepOptions{.threads = threads});

    const SweepTiming sample =
        measureSweep(serial_engine, threaded_engine, specs);

    json::Value doc = json::Value::makeObject();
    doc.set("bench", json::Value("perf_simulator"));
    doc.set("hardwareConcurrency",
            json::Value(static_cast<int64_t>(
                std::thread::hardware_concurrency())));
    setSweepMembers(doc, specs.size(), threads, sample);

    // Spec ops: the JSON hot-path primitives every sweep leans on —
    // parse, render, clone, structural compare, hash — priced per
    // operation over the canonical detector document, with heap
    // allocations counted through the binary's operator-new spy.
    // These are the numbers the compact tagged-union Value and the
    // hashed cache keys exist to improve, tracked directly so a
    // regression shows up here before it blurs into the end-to-end
    // sweep sections.
    {
        const spec::DesignSpec op_spec =
            spec::sampleDetectorSpec(30.0, 65);
        const std::string op_text = spec::toJson(op_spec);
        const json::Value op_doc = json::Value::parse(op_text);
        const json::Value op_doc2 = json::Value::parse(op_text);
        json::Value spec_ops = json::Value::makeObject();
        spec_ops.set("valueBytes",
                     json::Value(static_cast<int64_t>(
                         sizeof(json::Value))));
        spec_ops.set("documentBytes",
                     json::Value(static_cast<int64_t>(
                         op_text.size())));
        setOpCost(spec_ops, "parse",
                  measureOp(2000, [&](size_t) {
                      json::Value v = json::Value::parse(op_text);
                      benchmark::DoNotOptimize(v.type());
                  }));
        setOpCost(spec_ops, "dump",
                  measureOp(2000, [&](size_t) {
                      std::string s = op_doc.dump(0);
                      benchmark::DoNotOptimize(s.size());
                  }));
        setOpCost(spec_ops, "clone",
                  measureOp(2000, [&](size_t) {
                      json::Value v = op_doc;
                      benchmark::DoNotOptimize(v.type());
                  }));
        setOpCost(spec_ops, "compare",
                  measureOp(20000, [&](size_t) {
                      bool eq = op_doc == op_doc2;
                      benchmark::DoNotOptimize(eq);
                  }));
        setOpCost(spec_ops, "hash",
                  measureOp(20000, [&](size_t) {
                      uint64_t h = op_doc.hash();
                      benchmark::DoNotOptimize(h);
                  }));
        doc.set("specOps", std::move(spec_ops));
    }

    // Usecase-spec sweep: the 27 paper studies (Rhythmic, Ed-Gaze,
    // validation chips, samples) through the same engines — tracks
    // the throughput of the heavyweight production workloads — plus
    // the deterministic cycle-sim work one evaluation of each study
    // does: cycles ticked per pass and how each pass was answered
    // (floored in scripts/check_bench_floors.py).
    std::vector<spec::DesignSpec> uspecs = allPaperStudySpecs();
    const SweepTiming usecase_t =
        measureSweep(serial_engine, threaded_engine, uspecs);
    json::Value usecase = json::Value::makeObject();
    setSweepMembers(usecase, uspecs.size(), threads, usecase_t);
    PassSimStats usecase_passes;
    for (const spec::DesignSpec &s : uspecs) {
        EvalPipeline pipeline;
        try {
            pipeline.runAll(s.materialize());
        } catch (const ConfigError &) {
            // An infeasible study still reports what it simulated.
        }
        usecase_passes += pipeline.passStats();
    }
    setPassStats(usecase, usecase_passes);
    doc.set("usecaseSweep", std::move(usecase));

    // Study front end: each paper study as the one-point document a
    // job submits (toJson of its spec, the bytes of its tests/golden
    // file), lowered the way a job lowers it — sweepDocumentFromJson,
    // source(), at(0) — and counted in heap allocations per study. A
    // document without sweepGrid is evaluated as parsed, so this is
    // one parse, one fromJsonValue and two spec copies; the count is
    // exact, so it is the floor.
    {
        std::vector<std::string> texts;
        for (const spec::DesignSpec &s : uspecs)
            texts.push_back(spec::toJson(s));
        auto lower = [&](size_t i) {
            const spec::SweepDocument study =
                spec::sweepDocumentFromJson(texts[i % texts.size()]);
            const spec::GridSpecSource source = study.source();
            const spec::DesignSpec s = source.at(0);
            benchmark::DoNotOptimize(s.fps);
        };
        for (size_t i = 0; i < texts.size(); ++i)
            lower(i); // first touches of lazily built tables
        const OpCost c = measureOp(texts.size() * 20, lower);
        json::Value front = json::Value::makeObject();
        front.set("documents",
                  json::Value(static_cast<int64_t>(texts.size())));
        front.set("allocsPerStudy", json::Value(c.allocsPerOp));
        front.set("usPerStudy", json::Value(c.nsPerOp / 1e3));
        doc.set("studyFrontEnd", std::move(front));
    }

    // Lint: SpecAnalyzer().analyzeDocument over each paper study's
    // parsed one-point document, the check a job runs before it
    // lowers the document, in heap allocations per study. The rules
    // share one spec view and build a field path only for a finding;
    // the count is exact, so it is the floor.
    {
        std::vector<json::Value> raws;
        for (const spec::DesignSpec &s : uspecs)
            raws.push_back(json::Value::parse(spec::toJson(s)));
        auto lint = [&](size_t i) {
            const std::vector<analysis::Diagnostic> diags =
                analysis::SpecAnalyzer().analyzeDocument(
                    raws[i % raws.size()]);
            benchmark::DoNotOptimize(diags.size());
        };
        for (size_t i = 0; i < raws.size(); ++i)
            lint(i); // first touches of the key tables
        const OpCost c = measureOp(raws.size() * 20, lint);
        json::Value lint_cost = json::Value::makeObject();
        lint_cost.set("documents",
                      json::Value(static_cast<int64_t>(raws.size())));
        lint_cost.set("allocsPerStudy", json::Value(c.allocsPerOp));
        lint_cost.set("usPerStudy", json::Value(c.nsPerOp / 1e3));
        doc.set("lint", std::move(lint_cost));
    }

    // Materialize, in heap allocations: each canonical grid point on
    // a sweep worker's point path (GridSpecSource::pointAt re-lowers
    // the point's axis members and rewrites its name in the spec the
    // worker's SpecPoint keeps, then rebuilds only what those feed in
    // its Design), expansion included, since the spec is built in
    // place too; and each paper study through the whole path,
    // validate() and every part. Both counts are exact, so each is
    // its floor; the whole-path count per grid point (beyond the
    // expansion of a fresh spec by at()) and the timings are data.
    {
        json::Value materialize = json::Value::makeObject();
        const spec::SweepDocument canonical = spec::sampleDetectorStudy();
        const spec::GridSpecSource grid = canonical.source();
        const size_t n = grid.totalPoints();
        spec::SpecPoint point;
        auto point_path = [&](size_t i) {
            grid.pointAt(i % n, point);
            benchmark::DoNotOptimize(point.error);
        };
        auto expansion = [&](size_t i) {
            const spec::DesignSpec s = grid.at(i % n);
            benchmark::DoNotOptimize(s.fps);
        };
        auto whole_path = [&](size_t i) {
            const spec::DesignSpec s = grid.at(i % n);
            try {
                const Design d = s.materialize();
                benchmark::DoNotOptimize(d.fps());
            } catch (const ConfigError &) {
            }
        };
        for (size_t i = 0; i < n; ++i)
            point_path(i); // the point holds the base's copy from here
        const OpCost built = measureOp(n * 20, point_path);
        const OpCost expanded = measureOp(n * 20, expansion);
        const OpCost whole = measureOp(n * 20, whole_path);
        materialize.set("gridPoints",
                        json::Value(static_cast<int64_t>(n)));
        materialize.set("allocsPerPoint", json::Value(built.allocsPerOp));
        materialize.set("usPerPoint", json::Value(built.nsPerOp / 1e3));
        materialize.set("wholePathAllocsPerPoint",
                        json::Value(whole.allocsPerOp -
                                    expanded.allocsPerOp));
        materialize.set("wholePathUsPerPoint",
                        json::Value((whole.nsPerOp - expanded.nsPerOp) /
                                    1e3));
        auto study = [&](size_t i) {
            const Design d = uspecs[i % uspecs.size()].materialize();
            benchmark::DoNotOptimize(d.fps());
        };
        for (size_t i = 0; i < uspecs.size(); ++i)
            study(i);
        const OpCost studies = measureOp(uspecs.size() * 20, study);
        materialize.set("studies",
                        json::Value(static_cast<int64_t>(uspecs.size())));
        materialize.set("allocsPerStudy", json::Value(studies.allocsPerOp));
        materialize.set("usPerStudy", json::Value(studies.nsPerOp / 1e3));
        doc.set("materialize", std::move(materialize));

        // Render: each of the canonical points' result lines (feasible
        // and infeasible) written by sweepResultToJsonl into a string
        // of its own, in heap allocations per line: the string's one
        // buffer. Exact, so the count is the floor.
        CollectSink collected;
        spec::GridSpecSource lines_source = canonical.source();
        SweepEngine(SweepOptions{.threads = 1})
            .runStream(lines_source, collected);
        const std::vector<SweepResult> &results = collected.results();
        auto line = [&](size_t i) {
            const std::string text =
                sweepResultToJsonl(results[i % results.size()]);
            benchmark::DoNotOptimize(text.size());
        };
        const OpCost rendered = measureOp(results.size() * 20, line);
        json::Value render = json::Value::makeObject();
        render.set("lines",
                   json::Value(static_cast<int64_t>(results.size())));
        render.set("allocsPerLine", json::Value(rendered.allocsPerOp));
        render.set("usPerLine", json::Value(rendered.nsPerOp / 1e3));
        doc.set("render", std::move(render));

        // Point loop: heap allocations per canonical grid point
        // through runShard (the point built in place, the worker's
        // evaluator, the sinks and a JSONL line into a stream that
        // discards it; one worker, so a run's setup is shared by its
        // 108 points), and through IncrementalEvaluator::
        // evaluate(SpecPoint) alone, on the grid's feasible points and
        // on its D002 points, each timed too. The counts are exact,
        // so each is its floor; the timings are data.
        json::Value loop = json::Value::makeObject();
        loop.set("gridPoints", json::Value(static_cast<int64_t>(n)));
        DiscardBuf discard;
        std::ostream discarded(&discard);
        spec::ShardAssignment every;
        every.total = n;
        every.end = n;
        SimulationOptions report;
        report.checkMode = CheckMode::Report;
        const OpCost shard = measureOp(20, [&](size_t) {
            JsonlSink lines(discarded);
            runShard(grid, every, 1, report, lines);
        });
        json::Value shard_cost = json::Value::makeObject();
        shard_cost.set("allocsPerPoint",
                       json::Value(hundredths(shard.allocsPerOp / n)));
        shard_cost.set("usPerPoint",
                       json::Value(shard.nsPerOp / 1e3 / n));
        loop.set("runShard", std::move(shard_cost));

        IncrementalEvaluator evaluator(report);
        std::vector<size_t> feasible, d002;
        for (size_t i = 0; i < n; ++i) {
            grid.pointAt(i, point);
            const SimulationOutcome out = evaluator.evaluate(point);
            if (out.feasible)
                feasible.push_back(i);
            else if (out.ruleCode == "CAMJ-D002")
                d002.push_back(i);
        }
        auto evaluate = [&](const char *key,
                            const std::vector<size_t> &indices) {
            uint64_t allocs = 0;
            double seconds = 0.0;
            constexpr int kReps = 20;
            for (int rep = 0; rep < kReps; ++rep) {
                for (size_t i : indices) {
                    grid.pointAt(i, point);
                    const uint64_t allocs0 =
                        g_heapAllocs.load(std::memory_order_relaxed);
                    const auto t0 = std::chrono::steady_clock::now();
                    const SimulationOutcome out = evaluator.evaluate(point);
                    const auto t1 = std::chrono::steady_clock::now();
                    allocs += g_heapAllocs.load(std::memory_order_relaxed) -
                              allocs0;
                    seconds += std::chrono::duration<double>(t1 - t0).count();
                    benchmark::DoNotOptimize(out.feasible);
                }
            }
            const double calls =
                static_cast<double>(kReps) *
                static_cast<double>(std::max<size_t>(indices.size(), 1));
            json::Value cost = json::Value::makeObject();
            cost.set("points",
                     json::Value(static_cast<int64_t>(indices.size())));
            cost.set("allocsPerPoint",
                     json::Value(hundredths(static_cast<double>(allocs) /
                                            calls)));
            cost.set("usPerPoint", json::Value(seconds * 1e6 / calls));
            loop.set(key, std::move(cost));
        };
        evaluate("evaluateFeasible", feasible);
        evaluate("evaluateD002", d002);
        doc.set("pointLoop", std::move(loop));
    }

    // Paper accuracy: the Fig. 7 validation statistics, pinned so
    // that performance work cannot drift the science unnoticed.
    const ValidationSummary fig07 = runValidation();
    json::Value validation = json::Value::makeObject();
    validation.set("fig07MapePct", json::Value(fig07.mapePct));
    validation.set("fig07Corr", json::Value(fig07.pearson));
    doc.set("validation", std::move(validation));

    // Streaming sweep: the SAME spec set as the batch sections
    // through runStream (callback sink) — the acceptance bar is
    // throughput >= the batch path.
    SweepOptions stream_options;
    stream_options.threads = threads;
    SweepEngine stream_engine(stream_options);
    timeStreaming(stream_engine, specs); // warm-up
    double stream_seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep)
        stream_seconds =
            std::min(stream_seconds, timeStreaming(stream_engine, specs));
    const double n_specs = static_cast<double>(specs.size());
    json::Value streaming = json::Value::makeObject();
    streaming.set("designPoints",
                  json::Value(static_cast<int64_t>(specs.size())));
    streaming.set("threads", json::Value(threads));
    streaming.set("seconds", json::Value(stream_seconds));
    streaming.set("designsPerSec",
                  json::Value(n_specs / stream_seconds));
    streaming.set("speedupVsBatch",
                  json::Value(sample.threadedSeconds / stream_seconds));
    doc.set("streamingSweep", std::move(streaming));

    // Grid sweep: a sweepGrid document expanded lazily point by
    // point while workers evaluate — expansion cost is part of the
    // measured pipeline.
    const spec::SweepDocument grid_doc = gridDocument(g_points);
    timeGridSweep(stream_engine, grid_doc); // warm-up
    double grid_seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep)
        grid_seconds =
            std::min(grid_seconds, timeGridSweep(stream_engine, grid_doc));
    const double n_grid = static_cast<double>(grid_doc.grid.points());
    json::Value grid = json::Value::makeObject();
    grid.set("designPoints",
             json::Value(static_cast<int64_t>(grid_doc.grid.points())));
    grid.set("axes", json::Value(static_cast<int64_t>(
                         grid_doc.grid.axes.size())));
    grid.set("threads", json::Value(threads));
    grid.set("seconds", json::Value(grid_seconds));
    grid.set("designsPerSec", json::Value(n_grid / grid_seconds));

    // Expansion: every point of the canonical 108-point study (always
    // the full grid, so the tracked numbers stay comparable across
    // runs), timed and counted in heap allocations per point through
    // the binary's operator-new spy. The allocation count is the
    // floor: host load cannot flake it.
    const spec::SweepDocument exp_doc = spec::sampleDetectorStudy();
    spec::GridSpecSource exp_source = exp_doc.source();
    const size_t n_exp = exp_source.totalPoints();
    double exp_allocs = 0.0;
    auto time_expansion = [&] {
        const uint64_t allocs0 =
            g_heapAllocs.load(std::memory_order_relaxed);
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < n_exp; ++i) {
            const spec::DesignSpec s = exp_source.at(i);
            benchmark::DoNotOptimize(s.fps);
        }
        const auto t1 = std::chrono::steady_clock::now();
        exp_allocs =
            static_cast<double>(
                g_heapAllocs.load(std::memory_order_relaxed) - allocs0) /
            static_cast<double>(n_exp);
        return std::chrono::duration<double>(t1 - t0).count();
    };
    time_expansion(); // warm-up (seeds the pool)
    double exp_seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep)
        exp_seconds = std::min(exp_seconds, time_expansion());
    json::Value expansion = json::Value::makeObject();
    expansion.set("designPoints",
                  json::Value(static_cast<int64_t>(n_exp)));
    setTimedRun(expansion, "inPlace", n_exp, exp_seconds);
    expansion.find("inPlace")->set("allocsPerPoint",
                                   json::Value(exp_allocs));
    grid.set("expansion", std::move(expansion));
    doc.set("gridSweep", std::move(grid));

    // Incremental sweep: the canonical grid once memo-free (each point
    // expanded and run through a fresh Simulator by runSerial, the
    // lines rendered in order) and once through the engine, whose
    // worker evaluates through a memo evaluator, single thread each.
    // The two JSONL outputs must be byte-identical — the memo is an
    // optimization, never a different answer. Every pass A on the
    // grid drains in closed form and every stall check is static, so
    // neither path ticks a cycle (the floor) and the memo sees no
    // lookup: the speedup is data, near 1.
    const spec::SweepDocument inc_doc = shardedStudyDocument();
    const size_t n_inc = inc_doc.grid.points();
    CycleSimMemoStats inc_memo;
    CycleSimStats inc_sim[2];
    SweepEngine inc_engine(SweepOptions{.threads = 1});
    auto time_grid_jsonl = [&](bool memo, std::string *bytes) {
        std::ostringstream out;
        const spec::GridSpecSource source = inc_doc.source();
        const auto t0 = std::chrono::steady_clock::now();
        if (memo) {
            JsonlSink lines(out);
            InOrderSink ordered(lines);
            const StreamStats st = inc_engine.runStream(source, ordered);
            inc_memo = st.cycleSimMemo;
            inc_sim[1] = st.cycleSim;
        } else {
            std::vector<spec::DesignSpec> specs;
            specs.reserve(source.totalPoints());
            for (size_t i = 0; i < source.totalPoints(); ++i)
                specs.push_back(source.at(i));
            inc_sim[0] = {};
            for (const SweepResult &r : inc_engine.runSerial(specs)) {
                out << sweepResultToJsonl(r) << '\n';
                inc_sim[0] += r.simStats;
            }
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (bytes != nullptr)
            *bytes = out.str();
        return std::chrono::duration<double>(t1 - t0).count();
    };
    std::string full_bytes, inc_bytes;
    time_grid_jsonl(false, nullptr); // warm-up
    double full_seconds = 1e30, inc_seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        full_seconds = std::min(full_seconds,
                                time_grid_jsonl(false, &full_bytes));
        inc_seconds = std::min(inc_seconds,
                               time_grid_jsonl(true, &inc_bytes));
    }
    if (inc_bytes != full_bytes) {
        std::fprintf(stderr, "error: memo sweep output differs from "
                     "the memo-free per-point run\n");
        return false;
    }
    const double n_incd = static_cast<double>(n_inc);
    json::Value incremental = json::Value::makeObject();
    incremental.set("designPoints",
                    json::Value(static_cast<int64_t>(n_inc)));
    setTimedRun(incremental, "fullRebuild", n_inc, full_seconds);
    setTimedRun(incremental, "incremental", n_inc, inc_seconds);
    incremental.set("speedup",
                    json::Value(full_seconds / inc_seconds));
    incremental.set("fullRebuildCyclesTicked",
                    json::Value(inc_sim[0].cyclesTicked));
    incremental.set("incrementalCyclesTicked",
                    json::Value(inc_sim[1].cyclesTicked));
    incremental.set("memoHits", json::Value(static_cast<int64_t>(
                                    inc_memo.hits)));
    incremental.set("memoMisses", json::Value(static_cast<int64_t>(
                                      inc_memo.misses)));
    incremental.set("identicalToFullRebuild", json::Value(true));
    doc.set("incrementalSweep", std::move(incremental));

    // Sharded sweep: the multi-PROCESS pipeline. The canonical
    // 108-point grid document once in this process (1 thread,
    // in-order JSONL) and once as 4 forked shard workers — the
    // camj_sweep plan/run/merge deployment shape — then the stream
    // merge, which must reproduce the 1-process bytes exactly.
    const spec::SweepDocument sharded_doc = shardedStudyDocument();
    const size_t n_sharded = sharded_doc.grid.points();
    const size_t n_shards = 4;
    const spec::ShardPlan shard_plan =
        spec::planShards(n_sharded, n_shards);
    std::vector<std::string> shard_paths;
    for (size_t k = 0; k < n_shards; ++k)
        shard_paths.push_back(
            strprintf("BENCH_shard_%zu.jsonl", k));
    const auto remove_shard_files = [&shard_paths] {
        for (const std::string &p : shard_paths)
            std::remove(p.c_str());
    };
    std::string single_bytes;
    timeSingleProcessShard(sharded_doc, nullptr); // warm-up
    double single_seconds = 1e30, forked_seconds = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
        single_seconds = std::min(
            single_seconds,
            timeSingleProcessShard(sharded_doc, &single_bytes));
        const double f =
            timeForkedShards(sharded_doc, shard_plan, shard_paths);
        if (f < 0.0) {
            remove_shard_files();
            return false;
        }
        forked_seconds = std::min(forked_seconds, f);
    }
    const auto m0 = std::chrono::steady_clock::now();
    std::ostringstream merged;
    MergeSummary merge_summary;
    try {
        merge_summary = mergeShardFiles(shard_paths, merged, 5,
                                        n_sharded);
    } catch (const std::exception &e) {
        // A gap/duplicate here means a shard worker misbehaved (or a
        // concurrent run shares this directory): fail the bench run
        // with the diagnostic, not std::terminate.
        std::fprintf(stderr, "error: shard merge failed: %s\n",
                     e.what());
        remove_shard_files();
        return false;
    }
    const auto m1 = std::chrono::steady_clock::now();
    const double merge_seconds =
        std::chrono::duration<double>(m1 - m0).count();
    const bool merge_identical = merged.str() == single_bytes;
    remove_shard_files();
    if (!merge_identical) {
        std::fprintf(stderr, "error: merged shard output differs "
                     "from the 1-process run\n");
        return false;
    }
    const double nd = static_cast<double>(n_sharded);
    json::Value sharded = json::Value::makeObject();
    sharded.set("designPoints",
                json::Value(static_cast<int64_t>(n_sharded)));
    sharded.set("feasiblePoints",
                json::Value(static_cast<int64_t>(
                    merge_summary.feasible)));
    json::Value one_proc = json::Value::makeObject();
    one_proc.set("seconds", json::Value(single_seconds));
    one_proc.set("designsPerSec", json::Value(nd / single_seconds));
    sharded.set("singleProcess", std::move(one_proc));
    json::Value multi_proc = json::Value::makeObject();
    multi_proc.set("processes",
                   json::Value(static_cast<int64_t>(n_shards)));
    multi_proc.set("seconds", json::Value(forked_seconds));
    multi_proc.set("designsPerSec", json::Value(nd / forked_seconds));
    sharded.set("forkedShards", std::move(multi_proc));
    sharded.set("speedup",
                json::Value(single_seconds / forked_seconds));
    sharded.set("mergeSeconds", json::Value(merge_seconds));
    sharded.set("mergeMatchesSingleProcess",
                json::Value(merge_identical));
    doc.set("shardedSweep", std::move(sharded));

    // Prefiltered sweep: the canonical study widened with axis values
    // the static grid analysis can prove infeasible (an out-of-range
    // SRAM node and an active fraction > 1). PrefilterSpecSource must
    // skip EXACTLY provably-doomed points — every pruned point is
    // re-simulated and must come back infeasible (false positives
    // fail the bench) — and the pruned sweep's end-to-end win over
    // the unfiltered run is the artifact's tracked speedup.
    spec::SweepDocument pre_doc = shardedStudyDocument();
    pre_doc.grid.axes[1].values.push_back(json::Value(254));
    pre_doc.grid.axes[2].values.push_back(json::Value(1.5));
    const size_t n_pre = pre_doc.grid.points();
    size_t false_positives = 0;
    spec::GridSpecSource probe = pre_doc.source();
    const analysis::GridAnalysis pre_analysis =
        analysis::GridAnalyzer().analyze(probe);
    {
        SimulationOptions check;
        check.checkMode = CheckMode::Report;
        const Simulator sim(check);
        for (size_t i = 0; i < n_pre; ++i) {
            if (pre_analysis.doomed(i) && sim.run(probe.at(i)).feasible)
                ++false_positives;
        }
    }
    if (false_positives > 0) {
        std::fprintf(stderr, "error: the grid prefilter pruned %zu "
                     "feasible point(s)\n", false_positives);
        return false;
    }
    auto time_prefiltered = [&](bool filtered) {
        SweepOptions o;
        o.threads = 1;
        SweepEngine pre_engine(o);
        size_t delivered = 0;
        CallbackSink count([&](SweepResult) {
            ++delivered;
            return true;
        });
        const auto t0 = std::chrono::steady_clock::now();
        if (filtered) {
            analysis::PrefilterSpecSource source(pre_doc);
            pre_engine.runStream(source, count);
        } else {
            spec::GridSpecSource source = pre_doc.source();
            pre_engine.runStream(source, count);
        }
        const auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(delivered);
        return std::chrono::duration<double>(t1 - t0).count();
    };
    time_prefiltered(false); // warm-up
    double unfiltered_seconds = 1e30, filtered_seconds = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
        unfiltered_seconds =
            std::min(unfiltered_seconds, time_prefiltered(false));
        filtered_seconds =
            std::min(filtered_seconds, time_prefiltered(true));
    }
    json::Value prefiltered = json::Value::makeObject();
    prefiltered.set("designPoints",
                    json::Value(static_cast<int64_t>(n_pre)));
    prefiltered.set("prunedPoints",
                    json::Value(static_cast<int64_t>(
                        pre_analysis.prunedPoints())));
    prefiltered.set("falsePositives",
                    json::Value(static_cast<int64_t>(false_positives)));
    json::Value unfiltered_run = json::Value::makeObject();
    unfiltered_run.set("seconds", json::Value(unfiltered_seconds));
    unfiltered_run.set("designsPerSec",
                       json::Value(static_cast<double>(n_pre) /
                                   unfiltered_seconds));
    prefiltered.set("unfiltered", std::move(unfiltered_run));
    json::Value filtered_run = json::Value::makeObject();
    filtered_run.set("seconds", json::Value(filtered_seconds));
    filtered_run.set("designsPerSec",
                     json::Value(static_cast<double>(n_pre) /
                                 filtered_seconds));
    prefiltered.set("prefiltered", std::move(filtered_run));
    prefiltered.set("speedup",
                    json::Value(unfiltered_seconds / filtered_seconds));
    doc.set("prefilteredSweep", std::move(prefiltered));

    // Strided sweep: the canonical study's axes through one memo
    // evaluator in row-major order and in the stride-12 order of
    // `camj_sweep plan --mode strided` (every 12th point, then the
    // next column), which revisits every rate in each column. ActBuf
    // holds 599 words (4,792 of a frame's 4,800 elements), the design
    // CycleSimMemoReuse.StridedShardOrderSimulatesEachTopologyOnce
    // uses: the closed forms decline, so pass A simulates every point
    // and pass B simulates a stall cone at 120 and 240 fps, and the
    // memo answers all but the three distinct topologies. The strided
    // pass is timed against a from-scratch Simulator in the same
    // order and both passes must reproduce its bytes. Always the full
    // 108-point grid, so the memo and cycle counts of each order are
    // exact (floored in scripts/check_bench_floors.py).
    spec::SweepDocument strided_doc = spec::sampleDetectorStudy();
    const int strided_actbuf_words = 599;
    for (spec::MemorySpec &m : strided_doc.base.memories) {
        if (m.name == "ActBuf")
            m.capacityWords = strided_actbuf_words;
    }
    spec::GridSpecSource strided_grid = strided_doc.source();
    const size_t n_strided = strided_grid.totalPoints();
    const size_t stride = 12; // 4 buffer nodes x 3 duty cycles
    std::vector<size_t> strided_order, row_major_order;
    for (size_t k = 0; k < stride; ++k)
        for (size_t i = k; i < n_strided; i += stride)
            strided_order.push_back(i);
    for (size_t i = 0; i < n_strided; ++i)
        row_major_order.push_back(i);
    SimulationOptions strided_opts;
    strided_opts.checkMode = CheckMode::Report;

    // What one memo evaluator did over an order.
    struct OrderStats
    {
        CycleSimMemoStats memo;
        PassSimStats passes;
    };
    // One JSONL line per grid index, in @p order, keyed by grid index
    // so orders compare line for line.
    auto time_order = [&](const std::vector<size_t> &order, bool memo,
                          std::vector<std::string> *lines,
                          OrderStats *order_stats) {
        lines->assign(n_strided, {});
        const auto t0 = std::chrono::steady_clock::now();
        const Simulator sim(strided_opts);
        IncrementalEvaluator inc(strided_opts);
        for (size_t idx : order) {
            const spec::DesignSpec s = strided_grid.at(idx);
            (*lines)[idx] =
                lineFor(idx, s, memo ? inc.evaluate(s) : sim.run(s));
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (order_stats != nullptr)
            *order_stats = {inc.memo().stats(), inc.passStats()};
        return std::chrono::duration<double>(t1 - t0).count();
    };

    std::vector<std::string> strided_ref, strided_lines, row_lines;
    OrderStats strided_stats, row_stats;
    time_order(strided_order, false, &strided_ref, nullptr); // warm-up
    double strided_ref_seconds = 1e30, strided_memo_seconds = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
        strided_ref_seconds = std::min(
            strided_ref_seconds,
            time_order(strided_order, false, &strided_ref, nullptr));
        strided_memo_seconds = std::min(
            strided_memo_seconds,
            time_order(strided_order, true, &strided_lines,
                       &strided_stats));
    }
    time_order(row_major_order, true, &row_lines, &row_stats);
    if (strided_lines != strided_ref || row_lines != strided_ref) {
        std::fprintf(stderr, "error: memo sweep output differs from "
                     "the from-scratch reference\n");
        return false;
    }
    json::Value strided = json::Value::makeObject();
    strided.set("designPoints",
                json::Value(static_cast<int64_t>(n_strided)));
    strided.set("stride", json::Value(static_cast<int64_t>(stride)));
    strided.set("actBufWords", json::Value(strided_actbuf_words));
    setTimedRun(strided, "fullRebuild", n_strided,
                strided_ref_seconds);
    setTimedRun(strided, "memo", n_strided, strided_memo_seconds);
    strided.set("speedupVsFullRebuild",
                json::Value(strided_ref_seconds / strided_memo_seconds));
    strided.set("memoHits", json::Value(static_cast<int64_t>(
                                strided_stats.memo.hits)));
    strided.set("memoMisses", json::Value(static_cast<int64_t>(
                                  strided_stats.memo.misses)));
    strided.set("rowMajorMemoHits", json::Value(static_cast<int64_t>(
                                        row_stats.memo.hits)));
    strided.set("rowMajorMemoMisses", json::Value(static_cast<int64_t>(
                                          row_stats.memo.misses)));
    json::Value strided_passes = json::Value::makeObject();
    setPassStats(strided_passes, strided_stats.passes);
    strided.set("passes", std::move(strided_passes));
    json::Value row_passes = json::Value::makeObject();
    setPassStats(row_passes, row_stats.passes);
    strided.set("rowMajorPasses", std::move(row_passes));
    strided.set("identicalToFullRebuild", json::Value(true));
    doc.set("stridedSweep", std::move(strided));

    // Served sweep: the camj_serve service end to end — a loopback
    // Server (2 in-process shard workers), a Client submitting the
    // canonical study over TCP and streaming the merged results —
    // against the same study through a plain in-process runStream.
    // The streamed bytes must be byte-identical to the local run,
    // because that identity IS the service contract. The floors are
    // the end frames' exact counters, summed over the submissions: a
    // healthy in-process job's monitor never times out of its wait
    // and restarts no worker; and the entries left in the work dir
    // the server was given, since in-process workers hand their
    // lines over in memory. The throughput and the overhead ratio
    // over the library path are wall clock and ride along as data.
    const spec::SweepDocument served_doc = shardedStudyDocument();
    const size_t n_served = served_doc.grid.points();
    std::string served_ref;
    timeSingleProcessShard(served_doc, nullptr); // warm-up
    double served_local_seconds = 1e30;
    for (int rep = 0; rep < 2; ++rep)
        served_local_seconds = std::min(
            served_local_seconds,
            timeSingleProcessShard(served_doc, &served_ref));
    const std::string served_work = "BENCH_serve_work";
    std::filesystem::remove_all(served_work);
    double served_seconds = 1e30;
    std::string served_bytes;
    int64_t served_polls = 0, served_restarts = 0, served_entries = 0;
    try {
        serve::ServerOptions server_options;
        server_options.port = 0;
        server_options.scheduler.shards = 2;
        server_options.scheduler.threadsPerWorker = 1;
        server_options.scheduler.workDir = served_work;
        serve::Server server(std::move(server_options));
        std::thread accept_thread([&server] { server.serve(); });
        const std::string served_text = spec::toJson(served_doc);
        bool served_done = true;
        for (int rep = 0; rep < 2 && served_done; ++rep) {
            std::ostringstream out;
            serve::Client client(server.port());
            const auto t0 = std::chrono::steady_clock::now();
            const serve::Client::SubmitOutcome outcome =
                client.submitAndStream(served_text, out);
            const auto t1 = std::chrono::steady_clock::now();
            served_seconds = std::min(
                served_seconds,
                std::chrono::duration<double>(t1 - t0).count());
            served_bytes = out.str();
            served_done =
                outcome.end.getString("state", "") == "done";
            served_polls += outcome.end.getInt("monitorPolls", -1);
            served_restarts +=
                outcome.end.getInt("workerRestarts", -1);
        }
        server.requestStop();
        accept_thread.join();
        std::error_code ec;
        if (std::filesystem::exists(served_work, ec))
            served_entries = std::distance(
                std::filesystem::directory_iterator(served_work),
                std::filesystem::directory_iterator());
        if (!served_done) {
            std::fprintf(stderr,
                         "error: a served sweep did not finish\n");
            std::filesystem::remove_all(served_work);
            return false;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: served sweep failed: %s\n",
                     e.what());
        std::filesystem::remove_all(served_work);
        return false;
    }
    std::filesystem::remove_all(served_work);
    if (served_bytes != served_ref) {
        std::fprintf(stderr, "error: served sweep stream differs "
                     "from the in-process run\n");
        return false;
    }
    const double served_overhead =
        served_seconds / served_local_seconds;
    json::Value served = json::Value::makeObject();
    served.set("designPoints",
               json::Value(static_cast<int64_t>(n_served)));
    served.set("shards", json::Value(static_cast<int64_t>(2)));
    served.set("threadsPerWorker",
               json::Value(static_cast<int64_t>(1)));
    setTimedRun(served, "inProcess", n_served, served_local_seconds);
    setTimedRun(served, "served", n_served, served_seconds);
    served.set("overheadRatio", json::Value(served_overhead));
    served.set("monitorPolls", json::Value(served_polls));
    served.set("workerRestarts", json::Value(served_restarts));
    served.set("workDirEntries", json::Value(served_entries));
    served.set("identicalToInProcess", json::Value(true));
    doc.set("servedSweep", std::move(served));

    // Cycle sim: one cycle-dominated frame — a slow fractional-rate
    // ADC (5/8 word/cycle) feeding a sliding-window unit (retire 5/8)
    // chained into a 2:1 reducer, 6,710,895 digital cycles — through
    // CycleSim::run(), best of 3. Every cycle is ticked, so
    // cyclesTicked must equal the frame's cycles (a floor re-checks
    // the exact count).
    auto build_cyclesim_frame = [] {
        CycleSim sim;
        const int line = sim.addMemory(
            {.name = "line", .capacityWords = 4096});
        const int mid = sim.addMemory(
            {.name = "mid", .capacityWords = 4096});
        const int64_t words = 1 << 22;
        sim.addSource({.name = "adc", .totalWords = words,
                       .wordsPerCycle = 0.625, .memIdx = line});
        SimUnit win;
        win.name = "win";
        win.inputs.push_back(
            {.memIdx = line, .needWords = 9, .readWords = 3,
             .retireWords = 0.625,
             .expectedWords = static_cast<double>(words)});
        win.outMemIdx = mid;
        win.outWords = 1;
        win.totalFires = (words - 9) * 8 / 5; // arrivals / retire
        win.latency = 8;
        sim.addUnit(win);
        SimUnit reduce;
        reduce.name = "reduce";
        reduce.inputs.push_back({.memIdx = mid, .needWords = 4,
                                 .readWords = 2, .retireWords = 2.0});
        reduce.outMemIdx = -1;
        reduce.outWords = 1;
        reduce.totalFires = (win.totalFires - 4) / 2;
        reduce.latency = 16;
        sim.addUnit(reduce);
        return sim;
    };
    CycleSim cs_sim = build_cyclesim_frame();
    CycleSimResult cs;
    double cs_seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        cs = cs_sim.run();
        const auto t1 = std::chrono::steady_clock::now();
        cs_seconds = std::min(
            cs_seconds, std::chrono::duration<double>(t1 - t0).count());
    }
    json::Value cyclesim = json::Value::makeObject();
    cyclesim.set("frameCycles", json::Value(cs.cycles));
    json::Value cs_run = json::Value::makeObject();
    cs_run.set("seconds", json::Value(cs_seconds));
    cs_run.set("cyclesPerSec",
               json::Value(static_cast<double>(cs.cycles) / cs_seconds));
    cs_run.set("cyclesTicked", json::Value(cs.stats.cyclesTicked));
    cyclesim.set("tickLoop", std::move(cs_run));
    doc.set("cycleSim", std::move(cyclesim));

    // Stage profile: where one-at-a-time evaluation time goes. Every
    // point of the (--points-scaled) canonical study through
    // EvalPipeline::runAllTimed, per-stage wall-clock accumulated
    // across the grid — the breakdown that shows cyclesim's share of
    // the pipeline and flags any stage creeping back up.
    const spec::SweepDocument prof_doc = shardedStudyDocument();
    std::vector<spec::DesignSpec> prof_pts =
        spec::expandGrid(prof_doc.base, prof_doc.grid);
    double stage_seconds[kEvalStageCount] = {0};
    int64_t prof_feasible = 0, prof_infeasible = 0;
    const auto prof_t0 = std::chrono::steady_clock::now();
    for (const spec::DesignSpec &s : prof_pts) {
        try {
            Design prof_design = s.materialize();
            EvalPipeline prof_pipeline;
            prof_pipeline.runAllTimed(prof_design, stage_seconds);
            ++prof_feasible;
        } catch (const std::exception &) {
            ++prof_infeasible;
        }
    }
    const auto prof_t1 = std::chrono::steady_clock::now();
    const double prof_seconds =
        std::chrono::duration<double>(prof_t1 - prof_t0).count();
    double staged_seconds = 0.0;
    for (double s : stage_seconds)
        staged_seconds += s;
    json::Value profile = json::Value::makeObject();
    profile.set("designPoints",
                json::Value(static_cast<int64_t>(prof_pts.size())));
    profile.set("feasiblePoints", json::Value(prof_feasible));
    profile.set("infeasiblePoints", json::Value(prof_infeasible));
    profile.set("seconds", json::Value(prof_seconds));
    profile.set("designsPerSec",
                json::Value(static_cast<double>(prof_pts.size()) /
                            prof_seconds));
    json::Value prof_stages = json::Value::makeObject();
    for (int i = 0; i < kEvalStageCount; ++i) {
        json::Value stage = json::Value::makeObject();
        stage.set("seconds", json::Value(stage_seconds[i]));
        stage.set("share",
                  json::Value(staged_seconds > 0.0
                                  ? stage_seconds[i] / staged_seconds
                                  : 0.0));
        prof_stages.set(evalStageName(static_cast<EvalStage>(i)),
                        std::move(stage));
    }
    profile.set("stages", std::move(prof_stages));
    doc.set("stageProfile", std::move(profile));

    const char *env_path = std::getenv("BENCH_JSON_PATH");
    const std::string path =
        env_path != nullptr ? env_path : "BENCH_simulator.json";
    std::ofstream out(path, std::ios::binary);
    out << doc.dump(2) << "\n";
    out.flush();
    if (!out) {
        std::fprintf(stderr, "error: failed to write %s\n",
                     path.c_str());
        return false;
    }
    const double n = static_cast<double>(specs.size());
    const double un = static_cast<double>(uspecs.size());
    std::printf("wrote %s: %.1f designs/sec serial, %.1f designs/sec "
                "with %d threads (%.2fx)\n", path.c_str(),
                n / sample.serialSeconds, n / sample.threadedSeconds,
                threads, sample.serialSeconds / sample.threadedSeconds);
    std::printf("usecase-spec sweep: %.1f designs/sec serial, %.1f "
                "designs/sec with %d threads (%.2fx); %" PRId64
                " cycles ticked in pass A, %" PRId64 " in pass B; "
                "pass A: %zu in closed form, %zu simulated; "
                "stall check: %zu stall-free, %zu bounded, %zu on the "
                "cone, %zu full-topology\n",
                un / usecase_t.serialSeconds,
                un / usecase_t.threadedSeconds, threads,
                usecase_t.serialSeconds / usecase_t.threadedSeconds,
                usecase_passes.passA.cyclesTicked,
                usecase_passes.passB.cyclesTicked,
                usecase_passes.passAClosedForm,
                usecase_passes.passASimulated,
                usecase_passes.stallRoutes.stallFree,
                usecase_passes.stallRoutes.bounded,
                usecase_passes.stallRoutes.cone,
                usecase_passes.stallRoutes.fullTopology);
    std::printf("fig07 validation: MAPE %.4f%%, r = %.5f\n",
                fig07.mapePct, fig07.pearson);
    std::printf("streaming sweep: %.1f designs/sec (%.2fx of the "
                "threaded batch path)\n", n / stream_seconds,
                sample.threadedSeconds / stream_seconds);
    std::printf("grid sweep: %.0f lazily expanded points, %.1f "
                "designs/sec\n", n_grid, n_grid / grid_seconds);
    std::printf("grid expansion: %zu points, %.0f points/sec, %.1f "
                "heap allocations per point\n", n_exp,
                static_cast<double>(n_exp) / exp_seconds, exp_allocs);
    std::printf("incremental sweep: %zu points, %.1f designs/sec "
                "full rebuild vs %.1f through the memo (%.2fx; %zu "
                "memo hits, %zu misses; %" PRId64 " and %" PRId64
                " cycles ticked), outputs byte-identical\n",
                n_inc, n_incd / full_seconds, n_incd / inc_seconds,
                full_seconds / inc_seconds, inc_memo.hits,
                inc_memo.misses, inc_sim[0].cyclesTicked,
                inc_sim[1].cyclesTicked);
    std::printf("sharded sweep: %zu points, %.1f designs/sec in 1 "
                "process, %.1f designs/sec across %zu processes "
                "(%.2fx); merge of %zu shard files byte-identical in "
                "%.3fs\n", n_sharded, nd / single_seconds,
                nd / forked_seconds, n_shards,
                single_seconds / forked_seconds, n_shards,
                merge_seconds);
    std::printf("prefiltered sweep: %zu points, %zu statically pruned "
                "(%zu false positives), %.1f designs/sec unfiltered "
                "vs %.1f prefiltered (%.2fx)\n", n_pre,
                pre_analysis.prunedPoints(), false_positives,
                static_cast<double>(n_pre) / unfiltered_seconds,
                static_cast<double>(n_pre) / filtered_seconds,
                unfiltered_seconds / filtered_seconds);
    std::printf("strided sweep: %zu points, %.1f designs/sec full "
                "rebuild vs %.1f through the memo (%.2fx); memo hits/"
                "misses %zu/%zu strided, %zu/%zu row-major; %" PRId64
                " cycles ticked strided; outputs byte-identical\n",
                n_strided,
                static_cast<double>(n_strided) / strided_ref_seconds,
                static_cast<double>(n_strided) / strided_memo_seconds,
                strided_ref_seconds / strided_memo_seconds,
                strided_stats.memo.hits, strided_stats.memo.misses,
                row_stats.memo.hits, row_stats.memo.misses,
                strided_stats.passes.passA.cyclesTicked +
                    strided_stats.passes.passB.cyclesTicked);
    std::printf("served sweep: %zu points over loopback TCP, %.1f "
                "designs/sec served vs %.1f in-process (%.2fx "
                "overhead), %" PRId64 " monitor poll(s), %" PRId64
                " worker restart(s), stream byte-identical\n",
                n_served,
                static_cast<double>(n_served) / served_seconds,
                static_cast<double>(n_served) / served_local_seconds,
                served_overhead, served_polls, served_restarts);
    std::printf("cycle sim: %" PRId64 " frame cycles, %" PRId64
                " ticked in %.3fs\n", cs.cycles, cs.stats.cyclesTicked,
                cs_seconds);
    std::printf("stage profile: %zu points in %.3fs;", prof_pts.size(),
                prof_seconds);
    for (int i = 0; i < kEvalStageCount; ++i)
        std::printf(" %s %.0f%%",
                    evalStageName(static_cast<EvalStage>(i)),
                    100.0 * (staged_seconds > 0.0
                                 ? stage_seconds[i] / staged_seconds
                                 : 0.0));
    std::printf("\n");
    std::error_code abs_ec;
    const std::filesystem::path abs_path =
        std::filesystem::absolute(path, abs_ec);
    std::printf("bench artifact: %s\n",
                abs_ec ? path.c_str() : abs_path.c_str());
    return true;
}

/** Strip and apply `--points N` / `--points=N` (the CI smoke-sweep
 *  knob) before google-benchmark sees the argument list. */
void
parsePointsFlag(int &argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--points" && i + 1 < argc) {
            g_points = std::atoi(argv[++i]);
            g_points_set = true;
        } else if (arg.rfind("--points=", 0) == 0) {
            g_points = std::atoi(arg.c_str() + std::strlen("--points="));
            g_points_set = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    if (g_points < 1) {
        std::fprintf(stderr,
                     "error: --points wants a positive count\n");
        std::exit(1);
    }
    argc = out;
}

} // namespace

int
main(int argc, char **argv)
{
    parsePointsFlag(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return writeBenchJson() ? 0 : 1;
}

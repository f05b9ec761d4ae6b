/**
 * @file
 * The in-process path: a job through the calls `camj_sweep run`
 * makes, its traced replay one layer call at a time, the from-scratch
 * full-build pass that splits evaluation time by stage, and the
 * output checks.
 */
#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/analyzer.h"
#include "analysis/grid_analyzer.h"
#include "core/design.h"
#include "core/pipeline.h"
#include "explore/incremental.h"
#include "explore/jsonl.h"
#include "explore/simulator.h"
#include "explore/sink.h"
#include "explore/sweep.h"
#include "perfbench.h"
#include "spec/grid.h"

using namespace camj;

namespace perfbench
{

// --------------------------------------------------------------- trace

long
Trace::add(const char *name, long parent, size_t job,
           Clock::time_point start, Clock::time_point end)
{
    spans_.push_back(Span{name, parent, job, start, end});
    return static_cast<long>(spans_.size()) - 1;
}

long
Trace::open(const char *name, long parent, size_t job,
            Clock::time_point start)
{
    return add(name, parent, job, start, start);
}

void
Trace::close(long id, Clock::time_point end)
{
    spans_[static_cast<size_t>(id)].end = end;
}

void
Trace::append(const Trace &other)
{
    const long base = static_cast<long>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(s);
    }
}

std::map<std::string, std::pair<double, size_t>>
Trace::selfTimes() const
{
    std::vector<double> children(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            children[static_cast<size_t>(s.parent)] +=
                secondsBetween(s.start, s.end);
    }
    std::map<std::string, std::pair<double, size_t>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        auto &[total, calls] = out[spans_[i].name];
        total += secondsBetween(spans_[i].start, spans_[i].end) -
                 children[i];
        ++calls;
    }
    return out;
}

void
Trace::write(const std::string &path,
             const std::vector<std::string> &labels) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    for (size_t j = 0; j < labels.size(); ++j)
        out << "{\"job\":" << j << ",\"label\":\"" << labels[j] << "\"}\n";
    if (spans_.empty())
        return;
    Clock::time_point t0 = spans_.front().start;
    for (const Span &s : spans_)
        t0 = std::min(t0, s.start);
    auto ns = [&](Clock::time_point t) {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
                .count());
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"parent\":" << s.parent << ",\"job\":" << s.job
            << ",\"start_ns\":" << ns(s.start)
            << ",\"end_ns\":" << ns(s.end) << "}\n";
    }
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

namespace
{

/** Stamps the first and last result line a job writes. */
class StampSink : public ResultSink
{
  public:
    explicit StampSink(ResultSink &inner) : inner_(inner) {}

    bool accept(SweepResult result) override
    {
        const bool more = inner_.accept(std::move(result));
        last = Clock::now();
        if (lines++ == 0)
            first = last;
        return more;
    }

    void finish() override { inner_.finish(); }

    size_t lines = 0;
    Clock::time_point first;
    Clock::time_point last;

  private:
    ResultSink &inner_;
};

void
lintOrThrow(const json::Value &raw)
{
    analysis::SpecAnalyzer analyzer;
    const std::vector<analysis::Diagnostic> diags =
        analyzer.analyzeDocument(raw);
    if (analysis::hasErrors(diags))
        throw std::runtime_error(
            "lint rejected the document:\n" +
            analysis::formatDiagnostics(diags, "job"));
}

/** The SweepResult SweepEngine assembles for an outcome. */
SweepResult
toResult(SimulationOutcome out, size_t index, const std::string &name)
{
    SweepResult r;
    r.index = index;
    r.designName = name;
    r.feasible = out.feasible;
    r.error = std::move(out.error);
    r.ruleCode = std::move(out.ruleCode);
    r.report = std::move(out.report);
    r.frames = out.frames;
    r.snrPenaltyDb = out.snrPenaltyDb;
    r.simStats = out.simStats;
    return r;
}

SweepResult
internalError(const std::exception &e, size_t index,
              const std::string &name)
{
    SweepResult r;
    r.index = index;
    r.designName = name;
    r.feasible = false;
    r.error = std::string("internal error: ") + e.what();
    r.ruleCode = "CAMJ-D003";
    return r;
}

SimulationOptions
sweepSimOptions()
{
    SimulationOptions sim;
    sim.checkMode = CheckMode::Report;
    return sim;
}

/** Record [since, now) as span @p name; returns now. */
Clock::time_point
mark(Trace &trace, const char *name, long parent, size_t job,
     Clock::time_point since)
{
    const Clock::time_point now = Clock::now();
    trace.add(name, parent, job, since, now);
    return now;
}

} // namespace

JobRun
runSweepJob(const Job &job)
{
    JobRun run;
    std::ostringstream out;
    const Clock::time_point t0 = Clock::now();
    {
        const json::Value raw = json::Value::parse(job.text);
        const spec::SweepDocument doc =
            spec::sweepDocumentFromJson(job.text);
        lintOrThrow(raw);
        spec::GridSpecSource grid = doc.source();
        const spec::ShardAssignment slice =
            jobSlices(job, grid.totalPoints(), false).front();
        spec::ShardSpecSource source(grid, slice);
        SweepOptions options;
        options.threads = 1;
        options.incremental = true;
        SweepEngine engine(options);
        JsonlSink lines(out);
        StampSink stamp(lines);
        ReindexSink global(stamp, [&](size_t local) {
            return slice.globalIndex(local);
        });
        InOrderSink ordered(global);
        engine.runStream(source, ordered);
        run.lines = stamp.lines;
        if (stamp.lines > 0) {
            run.firstSeconds = secondsBetween(t0, stamp.first);
            run.lastSeconds = secondsBetween(t0, stamp.last);
        }
    }
    run.bytes = std::move(out).str();
    run.totalSeconds = secondsBetween(t0, Clock::now());
    return run;
}

std::string
replayJob(const Job &job, bool served, size_t job_index, Trace &trace,
          ReplayCounters &counters)
{
    // A served job's client-side spans are its "job"; the daemon-side
    // calls replayed here hang under "replay".
    const long root = trace.open(served ? "replay" : "job", -1, job_index);
    Clock::time_point t = Clock::now();
    const json::Value raw = json::Value::parse(job.text);
    const spec::SweepDocument doc = spec::sweepDocumentFromJson(job.text);
    t = mark(trace, "spec.parse", root, job_index, t);
    lintOrThrow(raw);
    t = mark(trace, "analysis.lint", root, job_index, t);
    if (served) {
        analysis::PrefilterSpecSource prefilter(doc);
        t = mark(trace, "analysis.prefilter", root, job_index, t);
    }
    spec::GridSpecSource grid = doc.source();
    const std::vector<spec::ShardAssignment> slices =
        jobSlices(job, grid.totalPoints(), served);
    t = mark(trace, "spec.source", root, job_index, t);

    const SimulationOptions sim = sweepSimOptions();
    std::string out;
    for (const spec::ShardAssignment &slice : slices) {
        // One worker's view: a fresh shard source and evaluator,
        // pulled the way SweepEngine::runStream pulls on one thread.
        t = Clock::now();
        spec::ShardSpecSource source(grid, slice);
        IncrementalEvaluator evaluator(sim);
        t = mark(trace, "spec.source", root, job_index, t);
        std::optional<size_t> last;
        for (;;) {
            size_t index = 0;
            std::optional<spec::DesignSpec> spec = source.nextIndexed(index);
            if (!spec)
                break;
            std::optional<std::vector<std::string>> changed;
            if (last)
                changed = source.changedPaths(*last, index);
            last = index;
            t = mark(trace, "spec.expand", root, job_index, t);
            const size_t global = slice.globalIndex(index);
            SweepResult result;
            try {
                result = toResult(changed ? evaluator.evaluate(*spec, *changed)
                                          : evaluator.evaluate(*spec),
                                  global, spec->name);
            } catch (const std::exception &e) {
                result = internalError(e, global, spec->name);
            }
            t = mark(trace, "explore.evaluate", root, job_index, t);
            out += sweepResultToJsonl(result);
            out += '\n';
            t = mark(trace, "explore.render", root, job_index, t);
            counters.sim += result.simStats;
        }
        const IncrementalStats &st = evaluator.stats();
        counters.points += st.points;
        counters.fullBuilds += st.fullBuilds;
        counters.stagesRun += st.stagesRun;
        counters.lruHits += evaluator.compiledCacheStats().hits;
        counters.lruMisses += evaluator.compiledCacheStats().misses;
    }
    trace.close(root);
    return out;
}

void
tracePrefilter(const Job &job, size_t job_index, Trace &trace)
{
    const spec::SweepDocument doc = spec::sweepDocumentFromJson(job.text);
    const Clock::time_point t = Clock::now();
    analysis::PrefilterSpecSource prefilter(doc);
    mark(trace, "analysis.prefilter", -1, job_index, t);
}

void
traceFullBuilds(const std::vector<Job> &docs, size_t max_points,
                uint64_t seed, Trace &trace)
{
    // A seeded sample of the documents' points.
    std::vector<spec::SweepDocument> parsed;
    std::vector<std::pair<size_t, size_t>> points; // (doc, index)
    for (size_t d = 0; d < docs.size(); ++d) {
        parsed.push_back(spec::sweepDocumentFromJson(docs[d].text));
        for (size_t i = 0; i < parsed.back().grid.points(); ++i)
            points.emplace_back(d, i);
    }
    if (points.size() > max_points) {
        Rng rng(seed ^ 0x5eedf00dull);
        rng.shuffle(points);
        points.resize(max_points);
        std::sort(points.begin(), points.end());
    }

    static const char *const kStageSpans[kEvalStageCount] = {
        "core.map",     "core.analog", "core.digital",
        "core.cyclesim", "core.timing", "core.energy"};
    std::optional<spec::GridSpecSource> grid;
    size_t grid_doc = docs.size();
    for (size_t p = 0; p < points.size(); ++p) {
        const auto [d, index] = points[p];
        if (d != grid_doc) {
            grid.emplace(parsed[d].source());
            grid_doc = d;
        }
        const spec::DesignSpec spec = grid->at(index);
        const long root = trace.open("fullbuild", -1, p);
        Clock::time_point t = Clock::now();
        std::optional<Design> design;
        try {
            design.emplace(spec.materialize());
        } catch (const ConfigError &) {
        }
        t = mark(trace, "spec.materialize", root, p, t);
        if (design) {
            double stage_seconds[kEvalStageCount] = {0};
            EvalPipeline pipeline;
            try {
                pipeline.runAllTimed(*design, stage_seconds);
            } catch (const ConfigError &) {
                // Infeasible: the stages before the failing check
                // still carry their time.
            }
            // runAllTimed reports durations only; lay the stages
            // back to back from its start.
            for (int s = 0; s < kEvalStageCount; ++s) {
                const Clock::time_point end =
                    t + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(stage_seconds[s]));
                trace.add(kStageSpans[s], root, p, t, end);
                t = end;
            }
        }
        trace.close(root);
    }
}

std::string
referenceStream(const Job &job)
{
    const spec::SweepDocument doc = spec::sweepDocumentFromJson(job.text);
    spec::GridSpecSource grid = doc.source();
    const Simulator simulator(sweepSimOptions());
    std::string out;
    for (const spec::ShardAssignment &slice :
         jobSlices(job, grid.totalPoints(), false)) {
        for (size_t local = 0; local < slice.count(); ++local) {
            const size_t global = slice.globalIndex(local);
            const spec::DesignSpec spec = grid.at(global);
            SweepResult result;
            try {
                result = toResult(simulator.run(spec), global, spec.name);
            } catch (const std::exception &e) {
                result = internalError(e, global, spec.name);
            }
            out += sweepResultToJsonl(result);
            out += '\n';
        }
    }
    return out;
}

std::string
checkStudyEnergies(const std::string &bytes, const std::string &study,
                   const GoldenEnergies &golden)
{
    const auto want = golden.find(study);
    if (want == golden.end())
        return "no golden energies for " + study;
    if (bytes.empty() || bytes.back() != '\n' ||
        bytes.find('\n') != bytes.size() - 1)
        return "expected exactly one result line";
    const JsonlRecord rec =
        parseJsonlLine(bytes.substr(0, bytes.size() - 1));
    if (!rec.feasible)
        return "infeasible: " + rec.error;
    for (const auto &[cat, value] : want->second) {
        double got = 0.0;
        if (cat == "total") {
            got = rec.totalEnergy;
        } else {
            const auto it = rec.categories.find(cat);
            if (it == rec.categories.end())
                return "missing category " + cat;
            got = it->second;
        }
        if (!(std::fabs(got - value) <= 1e-9 * std::fabs(value))) {
            std::ostringstream msg;
            msg.precision(17);
            msg << cat << " = " << got << ", golden " << value;
            return msg.str();
        }
    }
    return "";
}

} // namespace perfbench

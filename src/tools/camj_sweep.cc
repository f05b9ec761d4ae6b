/**
 * @file
 * camj_sweep: the multi-process sweep driver. Takes one sweep
 * document (a DesignSpec JSON with a "sweepGrid" block) from plan to
 * merged results across as many processes — or hosts — as you like:
 *
 *   # split the study into 4 self-contained shard descriptors
 *   camj_sweep plan study.json --shards 4 --outdir work/
 *
 *   # run each shard anywhere (one process per shard; only the
 *   # descriptor file travels)
 *   camj_sweep run work/study-shard-0-of-4.json --out s0.jsonl
 *   ...
 *
 *   # or skip the plan files: shard on the command line
 *   camj_sweep run study.json --shard 2/4 --out s2.jsonl
 *
 *   # reduce the shard files back into one in-order result file
 *   camj_sweep merge s0.jsonl s1.jsonl s2.jsonl s3.jsonl \
 *       --out study.jsonl --total 108
 *
 * The merged file is byte-identical to what a single-process in-order
 * run over the same grid would write (pinned by tests/shard_test.cc);
 * merge aborts loudly on gaps, overlaps, and duplicate indices.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/grid_analyzer.h"
#include "common/cli.h"
#include "common/logging.h"
#include "explore/jsonl.h"
#include "explore/sweep.h"
#include "spec/shard.h"

using namespace camj;

namespace
{

int
usage(std::FILE *to)
{
    std::fprintf(to,
"usage:\n"
"  camj_sweep plan <sweep.json> --shards N [options]\n"
"      write N self-contained shard descriptor files\n"
"      --mode contiguous|strided   index partition (default contiguous)\n"
"      --outdir DIR                where descriptors go (default .)\n"
"      --prefix NAME               file prefix (default: spec name)\n"
"  camj_sweep run <sweep-or-shard.json> --out FILE [options]\n"
"      evaluate one shard, writing its JSONL result file\n"
"      --shard k/N                 shard a plain sweep document inline\n"
"      --mode contiguous|strided   with --shard (default contiguous)\n"
"      --threads T                 worker threads (default: all cores)\n"
"      --frames F                  frames per design point (default 1)\n"
"      --no-lint                   skip the pre-flight static analysis\n"
"      --verbose                   also print cycle-sim stats (cycles\n"
"                                  ticked per pass, how pass A's\n"
"                                  latency and pass B's stall check\n"
"                                  were answered, memo hits and\n"
"                                  misses)\n"
"  camj_sweep merge <shard.jsonl>... --out FILE [options]\n"
"      reduce shard files into one in-order result file + summary\n"
"      --top K                     top-K table size (default 5)\n"
"      --total N                   expected design points (catches a\n"
"                                  missing tail shard)\n"
"      --resume-plan FILE          on gaps, write an explicit-index\n"
"                                  shard descriptor covering exactly\n"
"                                  the missing points (exit 3) so\n"
"                                  only the hole is re-run; needs\n"
"                                  --doc\n"
"      --doc FILE                  the original sweep document the\n"
"                                  resume descriptor embeds\n"
"  camj_sweep lint <spec-or-sweep.json>... [options]\n"
"      static analysis only: report diagnostics, simulate nothing;\n"
"      exit 1 when any document has errors\n"
"      --werror                    treat warnings as errors\n");
    return to == stdout ? 0 : 2;
}

/** The value of flag @p i; exits with usage on a missing value. */
const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s wants a value\n", argv[i]);
        std::exit(usage(stderr));
    }
    return argv[++i];
}

/** Parse "k/N" (e.g. "2/4"). */
void
parseShardSpec(const std::string &text, size_t &k, size_t &n)
{
    const size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 == text.size()) {
        std::fprintf(stderr,
                     "error: --shard wants k/N (e.g. 2/4), got '%s'\n",
                     text.c_str());
        std::exit(2);
    }
    k = parseFlag<size_t>("--shard k", text.substr(0, slash).c_str());
    n = parseFlag<size_t>("--shard N", text.substr(slash + 1).c_str());
}

// ------------------------------------------------------------------ plan

int
cmdPlan(int argc, char **argv)
{
    std::string input, outdir = ".", prefix;
    size_t shards = 0;
    spec::ShardMode mode = spec::ShardMode::Contiguous;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--shards")
            shards = parseFlag<size_t>("--shards",
                                       flagValue(argc, argv, i));
        else if (arg == "--mode")
            mode = spec::shardModeFromName(flagValue(argc, argv, i));
        else if (arg == "--outdir")
            outdir = flagValue(argc, argv, i);
        else if (arg == "--prefix")
            prefix = flagValue(argc, argv, i);
        else if (input.empty() && arg[0] != '-')
            input = arg;
        else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }
    if (input.empty() || shards == 0) {
        std::fprintf(stderr,
                     "error: plan wants <sweep.json> and --shards N\n");
        return usage(stderr);
    }

    const spec::SweepDocument doc = spec::loadSweepFile(input);
    if (prefix.empty())
        prefix = doc.base.name;
    const spec::ShardPlan plan =
        spec::planShards(doc.grid.points(), shards, mode);
    const std::vector<std::string> paths =
        spec::writeShardPlan(doc, plan, outdir, prefix);
    std::printf("planned %zu design points into %zu %s shard(s):\n",
                plan.total, shards, spec::shardModeName(mode).c_str());
    for (size_t k = 0; k < paths.size(); ++k) {
        const spec::ShardAssignment &a = plan.shards[k];
        if (mode == spec::ShardMode::Contiguous)
            std::printf("  %s  [%zu, %zu)  %zu point(s)\n",
                        paths[k].c_str(), a.begin, a.end, a.count());
        else
            std::printf("  %s  {%zu, %zu+%zu, ...}  %zu point(s)\n",
                        paths[k].c_str(), a.shardIndex, a.shardIndex,
                        a.shardCount, a.count());
    }
    return 0;
}

// ------------------------------------------------------------------- run

int
cmdRun(int argc, char **argv)
{
    std::string input, out_path, shard_arg;
    spec::ShardMode mode = spec::ShardMode::Contiguous;
    int threads = 0;
    SimulationOptions sim;
    bool lint = true, verbose = false;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out")
            out_path = flagValue(argc, argv, i);
        else if (arg == "--shard")
            shard_arg = flagValue(argc, argv, i);
        else if (arg == "--mode")
            mode = spec::shardModeFromName(flagValue(argc, argv, i));
        else if (arg == "--no-lint")
            lint = false;
        else if (arg == "--verbose")
            verbose = true;
        else if (arg == "--threads")
            threads = parseFlag<int>("--threads",
                                     flagValue(argc, argv, i));
        else if (arg == "--frames")
            sim.frames = parseFlag<int>("--frames",
                                        flagValue(argc, argv, i), 1);
        else if (input.empty() && arg[0] != '-')
            input = arg;
        else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }
    if (input.empty() || out_path.empty()) {
        std::fprintf(stderr,
                     "error: run wants <sweep-or-shard.json> and "
                     "--out FILE\n");
        return usage(stderr);
    }

    // Read and parse once. Lint checks the whole document and builds
    // the grid source that runs; --no-lint only lowers and expands.
    std::ifstream in(input, std::ios::binary);
    if (!in)
        fatal("run: cannot read '%s'", input.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    auto refuse = [&](const std::vector<analysis::Diagnostic> &diags) {
        std::fprintf(stderr,
                     "%serror: run: base spec fails static analysis "
                     "(re-run with --no-lint to force, or see "
                     "camj_sweep lint)\n",
                     analysis::formatDiagnostics(diags, input).c_str());
        return 1;
    };
    json::Value doc;
    try {
        doc = json::Value::parse(text.str());
    } catch (const ConfigError &e) {
        if (!lint)
            throw;
        // As lintDocument(text) reports it: one coded diagnostic.
        return refuse({analysis::makeError(e.code(), "", e.what())});
    }
    std::shared_ptr<const spec::GridSpecSource> grid;
    if (lint) {
        analysis::DocumentLint result = analysis::lintDocument(doc);
        if (!result.sweep)
            return refuse(result.diagnostics);
        grid = std::move(result.source);
    } else {
        const spec::SweepDocument sweep =
            spec::sweepDocumentFromJson(doc);
        grid = std::make_shared<const spec::GridSpecSource>(sweep.base,
                                                            sweep.grid);
    }

    spec::ShardAssignment shard =
        spec::documentShard(doc, grid->totalPoints());
    if (!shard_arg.empty()) {
        size_t k = 0, n = 0;
        parseShardSpec(shard_arg, k, n);
        if (k >= n) {
            // An argument error, not a data error: usage + exit 2
            // like every other malformed flag.
            std::fprintf(stderr,
                         "error: --shard %zu/%zu: k must be < N\n", k,
                         n);
            return usage(stderr);
        }
        shard = spec::planShards(shard.total, n, mode).shards[k];
    }

    std::ofstream out(out_path, std::ios::binary);
    if (!out)
        fatal("run: cannot write '%s'", out_path.c_str());
    JsonlSink lines(out);
    const StreamStats stats = runShard(*grid, shard, threads, sim, lines);

    std::printf("shard %zu/%zu: evaluated %zu of %zu global point(s) "
                "-> %s (%zu line(s))\n", shard.shardIndex,
                shard.shardCount, stats.delivered, shard.total,
                out_path.c_str(), lines.written());
    if (verbose) {
        // Every point counts, infeasible ones included.
        const int64_t pass_a = stats.passes.passA.cyclesTicked;
        const int64_t pass_b = stats.passes.passB.cyclesTicked;
        std::printf("cycle-sim: %lld cycle(s) ticked (pass A %lld, "
                    "pass B %lld)\n",
                    static_cast<long long>(pass_a + pass_b),
                    static_cast<long long>(pass_a),
                    static_cast<long long>(pass_b));
        std::printf("pass-A latency: %zu in closed form, %zu "
                    "simulated\n", stats.passes.passAClosedForm,
                    stats.passes.passASimulated);
        const StallRouteCounts &routes = stats.passes.stallRoutes;
        std::printf("pass-B stall check: %zu statically stall-free, %zu "
                    "within the backlog bound, %zu on the cone, %zu by "
                    "full-topology fallback\n",
                    routes.stallFree, routes.bounded, routes.cone,
                    routes.fullTopology);
        std::printf("cycle-sim memo: %zu hit(s), %zu miss(es)\n",
                    stats.cycleSimMemo.hits, stats.cycleSimMemo.misses);
    }
    return 0;
}

// ----------------------------------------------------------------- merge

int
cmdMerge(int argc, char **argv)
{
    std::vector<std::string> inputs;
    std::string out_path, resume_path, doc_path;
    size_t top_k = 5;
    std::optional<size_t> expected_total;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out")
            out_path = flagValue(argc, argv, i);
        else if (arg == "--top")
            top_k = parseFlag<size_t>("--top", flagValue(argc, argv, i));
        else if (arg == "--total")
            expected_total = parseFlag<size_t>("--total",
                                               flagValue(argc, argv, i));
        else if (arg == "--resume-plan")
            resume_path = flagValue(argc, argv, i);
        else if (arg == "--doc")
            doc_path = flagValue(argc, argv, i);
        else if (arg[0] != '-')
            inputs.push_back(arg);
        else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }
    if (inputs.empty() || out_path.empty()) {
        std::fprintf(stderr, "error: merge wants shard files and "
                     "--out FILE\n");
        return usage(stderr);
    }

    if (!resume_path.empty()) {
        // Retry/resume: scan the shard files for holes BEFORE the
        // strict merge (which would abort at the first gap). A hole
        // becomes one explicit-index shard descriptor covering
        // exactly the missing global indices — re-run it, add its
        // JSONL to the merge inputs, and the merge completes.
        if (doc_path.empty()) {
            std::fprintf(stderr, "error: --resume-plan needs --doc "
                         "<sweep.json> (the document the resume "
                         "descriptor embeds)\n");
            return usage(stderr);
        }
        const spec::SweepDocument doc = spec::loadSweepFile(doc_path);
        const size_t total = doc.grid.points();
        if (expected_total && *expected_total != total)
            fatal("merge: --total %zu disagrees with %s, whose grid "
                  "expands to %zu points", *expected_total,
                  doc_path.c_str(), total);
        expected_total = total;
        const std::vector<size_t> missing =
            missingShardIndices(inputs, total);
        if (!missing.empty()) {
            spec::ShardDescriptor resume{
                doc, spec::explicitShard(total, missing)};
            std::ofstream plan(resume_path, std::ios::binary);
            plan << spec::shardDescriptorToJson(resume);
            plan.flush();
            if (!plan)
                fatal("merge: cannot write '%s'", resume_path.c_str());
            std::printf(
                "merge: %zu of %zu design point(s) missing "
                "(first: %zu, last: %zu)\n"
                "wrote resume shard descriptor %s\n"
                "re-run it and merge again with its output added:\n"
                "  camj_sweep run %s --out resume.jsonl\n",
                missing.size(), total, missing.front(),
                missing.back(), resume_path.c_str(),
                resume_path.c_str());
            return 3;
        }
        std::printf("merge: no gaps — all %zu design point(s) "
                    "covered\n", total);
    }

    std::ofstream out(out_path, std::ios::binary);
    if (!out)
        fatal("merge: cannot write '%s'", out_path.c_str());
    const MergeSummary summary =
        mergeShardFiles(inputs, out, top_k, expected_total);
    std::printf("merged %zu shard file(s) -> %s\n%s", inputs.size(),
                out_path.c_str(),
                formatMergeSummary(summary).c_str());
    return 0;
}

// ------------------------------------------------------------------ lint

int
cmdLint(int argc, char **argv)
{
    std::vector<std::string> inputs;
    bool werror = false;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--werror")
            werror = true;
        else if (arg[0] != '-')
            inputs.push_back(arg);
        else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }
    if (inputs.empty()) {
        std::fprintf(stderr,
                     "error: lint wants <spec-or-sweep.json>...\n");
        return usage(stderr);
    }

    size_t errors = 0, warnings = 0;
    for (const std::string &input : inputs) {
        std::ifstream in(input, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "%s: error: cannot read file\n",
                         input.c_str());
            ++errors;
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const analysis::DocumentLint lint =
            analysis::lintDocument(buf.str());
        std::fputs(
            analysis::formatDiagnostics(lint.diagnostics, input).c_str(),
            stdout);
        const size_t e = analysis::countSeverity(
            lint.diagnostics, analysis::Severity::Error);
        const size_t w = analysis::countSeverity(
            lint.diagnostics, analysis::Severity::Warning);
        if (lint.sweep && lint.sweep->grid.points() > 1) {
            std::fputs(lint.grid.summary().c_str(), stdout);
            std::printf("%s: grid expands to %zu point(s), %zu "
                        "provably infeasible\n",
                        input.c_str(), lint.grid.totalPoints(),
                        lint.grid.prunedPoints());
        }
        std::printf("%s: %zu error(s), %zu warning(s)\n", input.c_str(),
                    e, w);
        errors += e;
        warnings += w;
    }
    return errors > 0 || (werror && warnings > 0) ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setLoggingEnabled(false);
    if (argc < 2)
        return usage(stderr);
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
        return usage(stdout);
    try {
        if (cmd == "plan")
            return cmdPlan(argc - 2, argv + 2);
        if (cmd == "run")
            return cmdRun(argc - 2, argv + 2);
        if (cmd == "merge")
            return cmdMerge(argc - 2, argv + 2);
        if (cmd == "lint")
            return cmdLint(argc - 2, argv + 2);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "error: unknown subcommand '%s'\n",
                 cmd.c_str());
    return usage(stderr);
}

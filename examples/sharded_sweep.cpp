/**
 * @file
 * Example: splitting one sweep across processes — the library view of
 * what `camj_sweep plan / run / merge` does.
 *
 * A 108-point sweepGrid study is planned into 3 shards, each shard is
 * evaluated on one thread exactly as a separate worker process would
 * (runShard into a JsonlSink), and the merge reducer folds the shard
 * files back into one in-order result stream — byte-identical to a
 * 1-process run — plus summary statistics.
 *
 * In production the three run steps execute on three hosts; the only
 * things that travel are one descriptor JSON per shard (self-
 * contained: base spec + grid + index range) and one JSONL file back.
 *
 * Build & run:  ./build/examples/sharded_sweep
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "explore/jsonl.h"
#include "explore/sweep.h"
#include "spec/samples.h"
#include "spec/shard.h"

using namespace camj;
namespace fs = std::filesystem;

int
main()
{
    setLoggingEnabled(false);

    // The same 108-point study as examples/grid_sweep.cpp — also
    // checked in as examples/detector_sweep.json for the CLI:
    //   camj_sweep plan examples/detector_sweep.json --shards 3
    spec::SweepDocument doc = spec::sampleDetectorStudy();

    const fs::path work =
        fs::temp_directory_path() / "camj_sharded_sweep";
    fs::create_directories(work);

    // ---- plan: one self-contained descriptor file per shard -------
    const size_t shards = 3;
    const std::vector<std::string> descriptors = spec::writeShardPlan(
        doc, shards, spec::ShardMode::Contiguous, work.string(),
        "detector");
    std::printf("planned %zu points into %zu shards:\n",
                doc.grid.points(), shards);
    for (const std::string &path : descriptors)
        std::printf("  %s\n", path.c_str());

    // ---- run: each shard as its own worker --------------------------
    // Each loop iteration is what one `camj_sweep run` process does
    // on one host: load the descriptor, evaluate only the owned index
    // range, write an in-order JSONL shard file with GLOBAL indices.
    std::vector<std::string> shard_files;
    for (const std::string &path : descriptors) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        const spec::ShardDescriptor d =
            spec::shardDescriptorFromJson(text.str());

        const std::string out_path = strprintf(
            "%s/shard-%zu.jsonl", work.string().c_str(),
            d.shard.shardIndex);
        std::ofstream out(out_path, std::ios::binary);
        JsonlSink lines(out);
        const StreamStats stats =
            runShard(d.doc.source(), d.shard, /*threads=*/1, {}, lines);
        std::printf("shard %zu/%zu: [%zu, %zu) -> %zu line(s)\n",
                    d.shard.shardIndex, d.shard.shardCount,
                    d.shard.begin, d.shard.end, stats.delivered);
        shard_files.push_back(out_path);
    }

    // ---- merge: back to one in-order stream -------------------------
    std::ostringstream merged;
    const MergeSummary summary = mergeShardFiles(
        shard_files, merged, /*top_k=*/5,
        /*expected_total=*/doc.grid.points());
    std::printf("\n%s", formatMergeSummary(summary).c_str());

    // The reduced stream is exactly what one process would have
    // produced: same lines, same order, same bytes — so sharding is
    // free of result drift by construction.
    std::printf("\nmerged stream: %zu lines, first line:\n%s\n",
                summary.records,
                merged.str().substr(0, merged.str().find('\n'))
                    .c_str());
    return 0;
}

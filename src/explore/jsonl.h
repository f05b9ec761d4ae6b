/**
 * @file
 * The read side of the JSONL shard format, and the merge reducer that
 * turns N shard files back into one in-order result stream. JsonlSink
 * (sink.h) is the write side: one JSON object per line, keyed by the
 * global "index" member.
 *
 * The merge is a streaming k-way reduce: every shard file is read
 * through a cursor (shard runs write in ascending index order, so one
 * line of lookahead per file suffices), the smallest pending index is
 * emitted next, and the global sequence must come out as exactly
 * 0, 1, 2, ... — a gap (lost shard, crashed worker) or a duplicate /
 * overlap (misconfigured plan, a shard run twice) aborts loudly with
 * the offending index and file named. Emitted lines are the input
 * lines VERBATIM, so a merged file is byte-identical to what a
 * single-process in-order run over the same grid would have written.
 */

#ifndef CAMJ_EXPLORE_JSONL_H
#define CAMJ_EXPLORE_JSONL_H

#include <cstddef>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace camj
{

struct SweepResult;

/** One parsed shard-file line (see sweepResultToJsonl). */
struct JsonlRecord
{
    /** Global grid index of the design point. */
    size_t index = 0;
    std::string design;
    bool feasible = false;
    /** Failure text for infeasible points. */
    std::string error;
    /** Lint-rule code classifying the failure (docs/lint_rules.md);
     *  empty when feasible or written by an older tool. */
    std::string ruleCode;
    /** Energy over all simulated frames [J]; 0 when infeasible. */
    double totalEnergy = 0.0;
    /** Per-category energies [J] (feasible points only). */
    std::map<std::string, double> categories;
    /** The exact input line (no newline) — what merge re-emits. */
    std::string raw;
};

/** Parse one shard-file line. @throws ConfigError on malformed JSON
 *  or a missing, negative or non-integral "index" (CAMJ-E018 when it
 *  is not an integer). */
JsonlRecord parseJsonlLine(const std::string &line);

/**
 * The record of @p result's line without parsing it back: raw is
 * sweepResultToJsonl(result), and every other member holds what
 * parseJsonlLine(raw) would read (numbers print as %.17g, so each
 * reads back as the same double). What a worker that shares the
 * reader's address space hands to a merge. The line is rendered in
 * @p scratch first, so raw is allocated once at its size; a caller
 * that keeps @p scratch from line to line allocates nothing else for
 * it.
 *
 * @throws ConfigError when the line cannot be rendered.
 */
JsonlRecord jsonlRecordOf(const SweepResult &result,
                          std::string &scratch);

/**
 * Streaming reader over one shard JSONL file; skips blank lines.
 * Tolerates the two transport mutations a shard file picks up moving
 * between hosts: CRLF line endings (the \r is stripped, so raw stays
 * the canonical LF-file bytes merge re-emits) and a missing trailing
 * newline on the final record (a stream truncated exactly at a record
 * boundary, then resumed). A record torn mid-JSON still fails loudly
 * with the file and line named.
 */
class JsonlReader
{
  public:
    /** @throws ConfigError when the file cannot be opened. */
    explicit JsonlReader(const std::string &path);

    /** The next record, or nullopt at end of file. @throws
     *  ConfigError naming the file and line on a malformed line, with
     *  the rule of the error that line raised. */
    std::optional<JsonlRecord> next();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ifstream in_;
    size_t lineNo_ = 0;
};

/** What one merge pass reduced. */
struct MergeSummary
{
    /** Records emitted (== the contiguous index range [0, records)). */
    size_t records = 0;
    size_t feasible = 0;
    size_t infeasible = 0;
    /** Sum of totalEnergy over the feasible records [J]. */
    double totalEnergy = 0.0;
    /** Per-category energy totals over the feasible records [J]. */
    std::map<std::string, double> categoryTotals;
    /** The K most energy-efficient feasible records, ascending by
     *  totalEnergy (ties broken by index). */
    std::vector<JsonlRecord> topK;
    /** The K the reduction ran with. */
    size_t topKLimit = 0;
};

/**
 * Merge shard JSONL files into @p out, in ascending global index
 * order, verifying the merged indices form exactly 0, 1, 2, ...
 * (and, when @p expected_total is given, exactly [0, expected_total)
 * — which catches a missing TAIL shard that contiguity alone cannot).
 *
 * @throws ConfigError on a gap, duplicate, overlap, out-of-order
 *         shard file, malformed line, or short/overfull merge; the
 *         message names the index and file.
 */
MergeSummary mergeShardFiles(const std::vector<std::string> &paths,
                             std::ostream &out, size_t top_k = 5,
                             std::optional<size_t> expected_total =
                                 std::nullopt);

/** Human-readable report of a merge (counts, category totals, the
 *  top-K table). */
std::string formatMergeSummary(const MergeSummary &summary);

/**
 * Fold one record into @p summary's running statistics (counts,
 * energy totals, the top-K table; topKLimit must be set first). The
 * shared reducer behind mergeShardFiles and the sweep service's
 * incremental job merger (src/serve/scheduler.h), so a streamed merge
 * and a batch merge cannot drift.
 */
void accumulateMergeRecord(MergeSummary &summary, JsonlRecord record);

/**
 * Gap scan: the global indices of [0, @p total) that no line of the
 * shard files covers — the retry/resume companion of the strict
 * merge. Where mergeShardFiles aborts on the first gap, this pass
 * tolerates them (and duplicate indices) and reports every hole, so
 * `camj_sweep merge --resume-plan` can emit one explicit-index shard
 * descriptor covering exactly the missing points.
 *
 * @throws ConfigError on unreadable files, malformed lines, or an
 *         index >= @p total (the inputs belong to a bigger plan).
 */
std::vector<size_t> missingShardIndices(
    const std::vector<std::string> &paths, size_t total);

} // namespace camj

#endif // CAMJ_EXPLORE_JSONL_H

#include "explore/jsonl.h"

#include <algorithm>
#include <charconv>

#include "common/logging.h"
#include "common/units.h"
#include "core/report.h"
#include "explore/sink.h"
#include "spec/json.h"

namespace camj
{

using json::Value;

// -------------------------------------------------------------- parsing

JsonlRecord
parseJsonlLine(const std::string &line)
{
    const Value o = Value::parse(line);
    JsonlRecord r;
    const Value &index_value = o.at("index");
    const int64_t index = index_value.asInt();
    // asInt rounds; the merge re-emits the line's own bytes, so an
    // index must be the integer it is read as.
    if (static_cast<double>(index) != index_value.asNumber()) {
        char buf[32];
        const std::to_chars_result end = std::to_chars(
            buf, buf + sizeof(buf), index_value.asNumber());
        fatal(Rule::E018, "jsonl: index %.*s is not an integer",
              static_cast<int>(end.ptr - buf), buf);
    }
    if (index < 0)
        fatal(Rule::E018, "jsonl: negative index %lld",
              static_cast<long long>(index));
    r.index = static_cast<size_t>(index);
    r.design = o.getString("design", "");
    r.feasible = o.getBool("feasible", false);
    r.error = o.getString("error", "");
    r.ruleCode = o.getString("ruleCode", "");
    r.totalEnergy = o.getNumber("totalEnergy", 0.0);
    if (const Value *cats = o.find("categories")) {
        for (const auto &[name, v] : cats->asObject())
            r.categories[name] = v.asNumber();
    }
    r.raw = line;
    return r;
}

JsonlRecord
jsonlRecordOf(const SweepResult &result, std::string &scratch)
{
    JsonlRecord r;
    scratch.clear();
    sweepResultToJsonl(result, scratch);
    r.raw = scratch;
    r.index = result.index;
    r.design = result.designName;
    r.feasible = result.feasible;
    if (!result.feasible) {
        r.error = result.error;
        r.ruleCode = result.ruleCode;
        return r;
    }
    // Sums that start at +0.0 are never -0.0 (which the writer prints
    // as "0"), so every value reads back as itself.
    r.totalEnergy = result.totalEnergy();
    for (EnergyCategory cat : allEnergyCategories())
        r.categories.emplace(energyCategoryName(cat),
                             result.report.category(cat));
    return r;
}

JsonlReader::JsonlReader(const std::string &path)
    : path_(path), in_(path, std::ios::binary)
{
    if (!in_)
        fatal("jsonl: cannot open '%s' for reading", path.c_str());
}

std::optional<JsonlRecord>
JsonlReader::next()
{
    std::string line;
    while (std::getline(in_, line)) {
        ++lineNo_;
        // Shard files produced on CRLF hosts (or piped through tools
        // that rewrite line endings) carry a trailing \r per line;
        // strip it so the record parses and raw stays the canonical
        // LF bytes the merge re-emits. A final record with no
        // trailing newline at all is already handled: getline
        // delivers the unterminated tail as a normal line.
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        try {
            return parseJsonlLine(line);
        } catch (const ConfigError &e) {
            fatal(e.rule(), "jsonl: %s:%zu: %s", path_.c_str(),
                  lineNo_, e.message());
        }
    }
    return std::nullopt;
}

// ---------------------------------------------------------------- merge

namespace
{

/** One shard file being reduced: a reader plus one-record lookahead. */
struct ShardCursor
{
    JsonlReader reader;
    std::optional<JsonlRecord> head;
    /** Index of the previously consumed record, for per-file order
     *  checking. */
    std::optional<size_t> lastIndex;

    explicit ShardCursor(const std::string &path) : reader(path)
    {
        head = reader.next();
    }

    void advance()
    {
        lastIndex = head->index;
        head = reader.next();
        if (head && lastIndex && head->index <= *lastIndex)
            fatal("merge: %s is not in ascending index order "
                  "(index %zu follows %zu) — shard files must be "
                  "written through InOrderSink",
                  reader.path().c_str(), head->index, *lastIndex);
    }
};

} // namespace

void
accumulateMergeRecord(MergeSummary &summary, JsonlRecord record)
{
    ++summary.records;
    if (!record.feasible) {
        ++summary.infeasible;
        return;
    }
    ++summary.feasible;
    summary.totalEnergy += record.totalEnergy;
    for (const auto &[name, e] : record.categories)
        summary.categoryTotals[name] += e;
    if (summary.topKLimit == 0)
        return;
    auto pos = std::upper_bound(
        summary.topK.begin(), summary.topK.end(), record,
        [](const JsonlRecord &a, const JsonlRecord &b) {
            return a.totalEnergy != b.totalEnergy
                       ? a.totalEnergy < b.totalEnergy
                       : a.index < b.index;
        });
    if (summary.topK.size() >= summary.topKLimit &&
        pos == summary.topK.end())
        return;
    summary.topK.insert(pos, std::move(record));
    if (summary.topK.size() > summary.topKLimit)
        summary.topK.pop_back();
}

MergeSummary
mergeShardFiles(const std::vector<std::string> &paths,
                std::ostream &out, size_t top_k,
                std::optional<size_t> expected_total)
{
    if (paths.empty())
        fatal("merge: no shard files given");

    std::vector<ShardCursor> cursors;
    cursors.reserve(paths.size());
    for (const std::string &path : paths)
        cursors.emplace_back(path);

    MergeSummary summary;
    summary.topKLimit = top_k;
    size_t expected = 0; // the next global index the stream owes us
    for (;;) {
        // The smallest pending head across all shard files is the
        // only candidate for the next output line.
        ShardCursor *min_cursor = nullptr;
        for (ShardCursor &c : cursors) {
            if (c.head &&
                (min_cursor == nullptr ||
                 c.head->index < min_cursor->head->index))
                min_cursor = &c;
        }
        if (min_cursor == nullptr)
            break;
        const size_t index = min_cursor->head->index;
        if (index < expected) {
            // A second copy of an index we already emitted.
            fatal("merge: duplicate index %zu in %s — two shards "
                  "overlap (or one shard ran twice)", index,
                  min_cursor->reader.path().c_str());
        }
        if (index > expected) {
            fatal("merge: missing index %zu (next available is %zu "
                  "in %s) — a shard file is absent or a shard run "
                  "was incomplete", expected, index,
                  min_cursor->reader.path().c_str());
        }
        out << min_cursor->head->raw << "\n";
        if (!out)
            fatal("merge: write failed after %zu line(s)",
                  summary.records);
        accumulateMergeRecord(summary, std::move(*min_cursor->head));
        min_cursor->advance();
        ++expected;
    }
    out.flush();
    if (!out)
        fatal("merge: flush failed after %zu line(s)",
              summary.records);

    if (expected_total && summary.records != *expected_total)
        fatal("merge: merged %zu record(s) but the plan covers %zu — "
              "%s", summary.records, *expected_total,
              summary.records < *expected_total
                  ? "a tail shard is missing"
                  : "the inputs cover more than one plan");
    return summary;
}

std::vector<size_t>
missingShardIndices(const std::vector<std::string> &paths,
                    size_t total)
{
    std::vector<bool> present(total, false);
    for (const std::string &path : paths) {
        JsonlReader reader(path);
        while (std::optional<JsonlRecord> record = reader.next()) {
            if (record->index >= total)
                fatal("jsonl: %s carries index %zu but the plan "
                      "covers only [0, %zu) — these shard files "
                      "belong to a different plan", path.c_str(),
                      record->index, total);
            present[record->index] = true;
        }
    }
    std::vector<size_t> missing;
    for (size_t i = 0; i < total; ++i) {
        if (!present[i])
            missing.push_back(i);
    }
    return missing;
}

std::string
formatMergeSummary(const MergeSummary &summary)
{
    std::string out = strprintf(
        "merged %zu design point(s): %zu feasible, %zu infeasible\n",
        summary.records, summary.feasible, summary.infeasible);
    if (summary.feasible > 0) {
        out += strprintf("total energy over feasible points: %.6f J\n",
                         summary.totalEnergy);
        out += "per-category totals:\n";
        for (const auto &[name, e] : summary.categoryTotals)
            out += strprintf("  %-16s %14.3f uJ\n", name.c_str(),
                             e / units::uJ);
    }
    if (!summary.topK.empty()) {
        out += strprintf("top-%zu most energy-efficient designs:\n",
                         summary.topK.size());
        out += strprintf("  %5s  %-44s %14s\n", "index",
                         "design point", "E total[uJ]");
        for (const JsonlRecord &r : summary.topK)
            out += strprintf("  %5zu  %-44s %14.3f\n", r.index,
                             r.design.c_str(),
                             r.totalEnergy / units::uJ);
    }
    return out;
}

} // namespace camj

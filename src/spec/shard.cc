#include "spec/shard.h"

#include <fstream>

#include "common/logging.h"

namespace camj::spec
{

using json::Value;

// --------------------------------------------------------------- modes

std::string
shardModeName(ShardMode mode)
{
    switch (mode) {
      case ShardMode::Contiguous:
        return "contiguous";
      case ShardMode::Strided:
        return "strided";
      case ShardMode::Explicit:
        return "explicit";
    }
    panic("shardModeName: unknown mode %d", static_cast<int>(mode));
}

ShardMode
shardModeFromName(const std::string &name)
{
    if (name == "contiguous")
        return ShardMode::Contiguous;
    if (name == "strided")
        return ShardMode::Strided;
    if (name == "explicit")
        return ShardMode::Explicit;
    fatal("shard: unknown mode '%s' (known: contiguous, strided, "
          "explicit)", name.c_str());
}

// --------------------------------------------------------- assignments

size_t
ShardAssignment::count() const
{
    if (mode == ShardMode::Contiguous)
        return end - begin;
    if (mode == ShardMode::Explicit)
        return indices.size();
    // Strided: indices {k, k+N, ...} below total.
    if (shardIndex >= total)
        return 0;
    return (total - shardIndex + shardCount - 1) / shardCount;
}

size_t
ShardAssignment::globalIndex(size_t local) const
{
    if (local >= count())
        fatal("shard %zu/%zu: local index %zu out of range (shard "
              "has %zu points)", shardIndex, shardCount, local,
              count());
    if (mode == ShardMode::Contiguous)
        return begin + local;
    if (mode == ShardMode::Explicit)
        return indices[local];
    return shardIndex + local * shardCount;
}

void
ShardAssignment::validate() const
{
    if (shardCount == 0)
        fatal("shard: shardCount must be >= 1");
    if (shardIndex >= shardCount)
        fatal("shard: index %zu out of range (plan has %zu shards)",
              shardIndex, shardCount);
    if (begin > end || end > total)
        fatal("shard %zu/%zu: range [%zu, %zu) does not fit in "
              "[0, %zu)", shardIndex, shardCount, begin, end, total);
    if (mode == ShardMode::Strided && count() > 0 &&
        globalIndex(count() - 1) >= total)
        panic("shard %zu/%zu: strided range escapes [0, %zu)",
              shardIndex, shardCount, total);
    if (mode == ShardMode::Explicit) {
        for (size_t i = 0; i < indices.size(); ++i) {
            if (indices[i] >= total)
                fatal("shard: explicit index %zu out of range "
                      "[0, %zu)", indices[i], total);
            if (i > 0 && indices[i] <= indices[i - 1])
                fatal("shard: explicit index list must be strictly "
                      "ascending (%zu follows %zu)", indices[i],
                      indices[i - 1]);
        }
    } else if (!indices.empty()) {
        fatal("shard: %s mode does not take an index list",
              shardModeName(mode).c_str());
    }
}

ShardAssignment
explicitShard(size_t total, std::vector<size_t> indices)
{
    ShardAssignment a;
    a.mode = ShardMode::Explicit;
    a.shardIndex = 0;
    a.shardCount = 1;
    a.total = total;
    a.begin = indices.empty() ? 0 : indices.front();
    a.end = indices.empty() ? 0 : indices.back() + 1;
    a.indices = std::move(indices);
    a.validate();
    return a;
}

// ---------------------------------------------------------------- plans

ShardPlan
planShards(size_t total, size_t shard_count, ShardMode mode)
{
    if (shard_count == 0)
        fatal("planShards: shard count must be >= 1");
    if (mode == ShardMode::Explicit)
        fatal("planShards: explicit shards carry their own index "
              "list — build them with explicitShard()");
    ShardPlan plan;
    plan.mode = mode;
    plan.total = total;
    plan.shards.reserve(shard_count);
    const size_t base = total / shard_count;
    const size_t extra = total % shard_count;
    size_t cursor = 0;
    for (size_t k = 0; k < shard_count; ++k) {
        ShardAssignment a;
        a.mode = mode;
        a.shardIndex = k;
        a.shardCount = shard_count;
        a.total = total;
        if (mode == ShardMode::Contiguous) {
            a.begin = cursor;
            cursor += base + (k < extra ? 1 : 0);
            a.end = cursor;
        } else {
            a.begin = k < total ? k : total;
            a.end = total;
        }
        a.validate();
        plan.shards.push_back(a);
    }
    return plan;
}

// -------------------------------------------------------------- sources

ShardSpecSource::ShardSpecSource(const SpecSource &parent,
                                 ShardAssignment assignment)
    : parent_(parent), assignment_(assignment)
{
    assignment_.validate();
    if (assignment_.total != parent.totalPoints())
        fatal("shard %zu/%zu: assignment covers %zu points but the "
              "source has %zu", assignment_.shardIndex,
              assignment_.shardCount, assignment_.total,
              parent.totalPoints());
}

DesignSpec
ShardSpecSource::at(size_t index) const
{
    return parent_.at(assignment_.globalIndex(index));
}

void
ShardSpecSource::pointAt(size_t index, SpecPoint &point) const
{
    parent_.pointAt(assignment_.globalIndex(index), point);
}

std::optional<DesignSpec>
ShardSpecSource::nextIndexed(size_t &index)
{
    const size_t local = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (local >= assignment_.count())
        return std::nullopt;
    index = local;
    return at(local);
}

// ---------------------------------------------------------- descriptors

namespace
{

Value
shardToJson(const ShardAssignment &a)
{
    Value block = Value::makeObject();
    block.set("mode", Value(shardModeName(a.mode)));
    block.set("index", Value(static_cast<int64_t>(a.shardIndex)));
    block.set("count", Value(static_cast<int64_t>(a.shardCount)));
    block.set("total", Value(static_cast<int64_t>(a.total)));
    block.set("begin", Value(static_cast<int64_t>(a.begin)));
    block.set("end", Value(static_cast<int64_t>(a.end)));
    if (a.mode == ShardMode::Explicit) {
        Value indices = Value::makeArray();
        for (size_t i : a.indices)
            indices.push(Value(static_cast<int64_t>(i)));
        block.set("indices", std::move(indices));
    }
    return block;
}

ShardAssignment
shardFromJson(const Value &block)
{
    ShardAssignment a;
    a.mode = shardModeFromName(block.at("mode").asString());
    auto member = [&](const char *key) {
        const int64_t v = block.at(key).asInt();
        if (v < 0)
            fatal("shard: member '%s' is negative (%lld)", key,
                  static_cast<long long>(v));
        return static_cast<size_t>(v);
    };
    a.shardIndex = member("index");
    a.shardCount = member("count");
    a.total = member("total");
    a.begin = member("begin");
    a.end = member("end");
    if (a.mode == ShardMode::Explicit) {
        for (const Value &v : block.at("indices").asArray()) {
            const int64_t i = v.asInt();
            if (i < 0)
                fatal("shard: negative explicit index %lld",
                      static_cast<long long>(i));
            a.indices.push_back(static_cast<size_t>(i));
        }
    }
    a.validate();
    return a;
}

} // namespace

std::string
shardDescriptorToJson(const ShardDescriptor &descriptor)
{
    Value doc = toJsonValue(descriptor.doc.base);
    if (!descriptor.doc.grid.axes.empty())
        doc.set("sweepGrid", gridToJson(descriptor.doc.grid));
    doc.set("shard", shardToJson(descriptor.shard));
    return doc.dump(2) + "\n";
}

ShardAssignment
documentShard(const Value &doc, size_t points)
{
    const Value *block = doc.find("shard");
    if (block == nullptr)
        return planShards(points, 1).shards.front();
    ShardAssignment shard = shardFromJson(*block);
    if (shard.total != points)
        fatal("shard: descriptor says %zu total points but its own "
              "sweepGrid expands to %zu — the plan and the document "
              "disagree", shard.total, points);
    return shard;
}

ShardDescriptor
shardDescriptorFromJson(const std::string &text)
{
    const Value doc = Value::parse(text);
    ShardDescriptor out;
    out.doc = sweepDocumentFromJson(doc);
    out.shard = documentShard(doc, out.doc.grid.points());
    return out;
}

std::vector<std::string>
writeShardPlan(const SweepDocument &doc, const ShardPlan &plan,
               const std::string &out_dir, const std::string &prefix)
{
    std::vector<std::string> paths;
    paths.reserve(plan.shards.size());
    for (const ShardAssignment &a : plan.shards) {
        ShardDescriptor d{doc, a};
        std::string path = strprintf(
            "%s/%s-shard-%zu-of-%zu.json",
            out_dir.empty() ? "." : out_dir.c_str(), prefix.c_str(),
            a.shardIndex, a.shardCount);
        std::ofstream out(path, std::ios::binary);
        out << shardDescriptorToJson(d);
        out.flush();
        if (!out)
            fatal("shard: cannot write '%s'", path.c_str());
        paths.push_back(std::move(path));
    }
    return paths;
}

std::vector<std::string>
writeShardPlan(const SweepDocument &doc, size_t shard_count,
               ShardMode mode, const std::string &out_dir,
               const std::string &prefix)
{
    return writeShardPlan(
        doc, planShards(doc.grid.points(), shard_count, mode),
        out_dir, prefix);
}

} // namespace camj::spec

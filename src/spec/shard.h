/**
 * @file
 * ShardPlan: splitting one sweep across processes and hosts. A
 * SweepGrid (or any SpecSource) enumerates its design points
 * by a global 0-based index; a shard plan partitions [0, total) into
 * N disjoint index sets, one per worker process, in one of two modes:
 *
 *   - Contiguous: shard k owns one [begin, end) range, balanced to
 *     within one point. Ranges follow the grid's row-major order, so
 *     a shard covers a contiguous run along the outermost axis —
 *     cache-friendly for delta materialization.
 *   - Strided: shard k owns indices {k, k+N, k+2N, ...} — round-robin
 *     striping, which balances heterogeneous point costs (e.g. an fps
 *     axis where high rates simulate slower) across shards.
 *
 * Each shard serializes as a SELF-CONTAINED JSON descriptor — the
 * full sweep document (base spec + sweepGrid block) plus a "shard"
 * block naming the mode, k/N, the grid total, and the index range —
 * so a worker host needs exactly one file and no shared state:
 *
 *   camj_sweep plan study.json --shards 4        # 4 descriptors
 *   camj_sweep run study-shard-2-of-4.json ...   # on any host
 *   camj_sweep merge study-shard-*.jsonl ...     # back to one file
 *
 * ShardSpecSource re-indexes a shard's subset of the global index
 * space: its points have LOCAL indices (0, 1, ..., count) so the
 * engine's InOrderSink works unchanged, and globalIndex() maps a local
 * index back to the grid point it names — the identity shard JSONL
 * lines carry and the merge reducer keys on.
 */

#ifndef CAMJ_SPEC_SHARD_H
#define CAMJ_SPEC_SHARD_H

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "spec/grid.h"
#include "spec/json.h"
#include "spec/source.h"

namespace camj::spec
{

/** How a plan partitions the global index space. */
enum class ShardMode
{
    /** Shard k owns one contiguous [begin, end) range. */
    Contiguous,
    /** Shard k owns {k, k+N, k+2N, ...}. */
    Strided,
    /** The shard owns an explicit ascending index list — the
     *  retry/resume shape: `camj_sweep merge --resume-plan` emits a
     *  descriptor covering exactly the indices a crashed or lost
     *  shard run left missing. */
    Explicit,
};

/** ShardMode <-> its JSON token ("contiguous"/"strided"/"explicit"). */
std::string shardModeName(ShardMode mode);
ShardMode shardModeFromName(const std::string &name);

/** One shard's slice of a sweep: which global indices it owns. */
struct ShardAssignment
{
    ShardMode mode = ShardMode::Contiguous;
    /** This shard's number k, 0-based. */
    size_t shardIndex = 0;
    /** Total shards N in the plan. */
    size_t shardCount = 1;
    /** Global design points in the sweep (grid.points()). */
    size_t total = 0;
    /** Contiguous mode: the owned [begin, end) range. Strided mode:
     *  begin == shardIndex and end == total (informational).
     *  Explicit mode: the hull [first, last+1) of the index list
     *  (informational). */
    size_t begin = 0;
    size_t end = 0;
    /** Explicit mode: the owned global indices, strictly ascending. */
    std::vector<size_t> indices;

    /** Design points this shard owns. */
    size_t count() const;

    /** The global grid index of this shard's @p local-th point
     *  (local in [0, count())). @throws ConfigError out of range. */
    size_t globalIndex(size_t local) const;

    /** Internal consistency (k < N, begin <= end <= total, mode/range
     *  agreement, explicit index lists strictly ascending and in
     *  range). @throws ConfigError naming the bad field. */
    void validate() const;
};

/** The explicit-index assignment over @p indices (strictly ascending,
 *  all < @p total): shard 0 of 1 covering exactly those points.
 *  @throws ConfigError on unordered/duplicate/out-of-range indices. */
ShardAssignment explicitShard(size_t total,
                              std::vector<size_t> indices);

/** A full partition of [0, total) into shardCount assignments. */
struct ShardPlan
{
    ShardMode mode = ShardMode::Contiguous;
    size_t total = 0;
    std::vector<ShardAssignment> shards;
};

/**
 * Partition @p total points into @p shard_count shards. Contiguous
 * ranges are balanced to within one point (the first total %% N
 * shards take the extra one); strided shards interleave. Shards may
 * be empty when shard_count > total — plans stay valid, the empty
 * shard just produces an empty JSONL file.
 *
 * @throws ConfigError when shard_count is zero.
 */
ShardPlan planShards(size_t total, size_t shard_count,
                     ShardMode mode = ShardMode::Contiguous);

/**
 * The per-process view of a sweep: exactly the points of @p assignment
 * out of @p parent, in ascending GLOBAL order, but numbered by LOCAL
 * index (0-based, dense) so InOrderSink and StreamStats behave as for
 * any other source. Map results back to grid identity with
 * assignment().globalIndex(result.index) — or let runShard
 * (explore/sweep.h) do it. @p parent must outlive the source.
 */
class ShardSpecSource : public SpecSource
{
  public:
    /** @throws ConfigError when the assignment does not fit the
     *  parent (totals disagree) or is internally inconsistent. */
    ShardSpecSource(const SpecSource &parent, ShardAssignment assignment);

    size_t totalPoints() const override { return assignment_.count(); }
    DesignSpec at(size_t index) const override;
    /** The parent's pointAt() of the owned point, so a grid's points
     *  keep their point path through a shard. */
    void pointAt(size_t index, SpecPoint &point) const override;

    /**
     * The next owned point and its local index, off a cursor of this
     * source's own; nullopt once all are taken. Kept only for the
     * benchmark under perfbench/, whose replay walks a shard this way;
     * a sweep walks the source by index instead.
     */
    std::optional<DesignSpec> nextIndexed(size_t &index);

    const ShardAssignment &assignment() const { return assignment_; }

  private:
    const SpecSource &parent_;
    ShardAssignment assignment_;
    std::atomic<size_t> cursor_{0};
};

// --------------------------------------------------- shard descriptors

/**
 * A self-contained shard work order: the sweep document a worker
 * expands plus the slice of it this worker owns.
 */
struct ShardDescriptor
{
    SweepDocument doc;
    ShardAssignment shard;
};

/** Descriptor -> one JSON document (spec + sweepGrid + shard). */
std::string shardDescriptorToJson(const ShardDescriptor &descriptor);

/** The "shard" block of the parsed document @p doc, whose own grid
 *  expands to @p points; without one, shard 0 of 1. @throws
 *  ConfigError when it is malformed or its total is not @p points. */
ShardAssignment documentShard(const json::Value &doc, size_t points);

/**
 * Parse a shard descriptor document: sweepDocumentFromJson, then
 * documentShard against its grid. @throws ConfigError.
 */
ShardDescriptor shardDescriptorFromJson(const std::string &text);

/**
 * Write one descriptor file per shard of @p plan into @p out_dir,
 * named "<prefix>-shard-<k>-of-<N>.json". The plan must cover @p
 * doc's own grid (shard totals are validated at load time).
 *
 * @return the paths written, in shard order. @throws ConfigError on
 *         I/O failure.
 */
std::vector<std::string> writeShardPlan(const SweepDocument &doc,
                                        const ShardPlan &plan,
                                        const std::string &out_dir,
                                        const std::string &prefix);

/** Convenience overload: plan @p shard_count shards over @p doc's
 *  grid, then write the descriptor files. @throws ConfigError. */
std::vector<std::string> writeShardPlan(const SweepDocument &doc,
                                        size_t shard_count,
                                        ShardMode mode,
                                        const std::string &out_dir,
                                        const std::string &prefix);

} // namespace camj::spec

#endif // CAMJ_SPEC_SHARD_H

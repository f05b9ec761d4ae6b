/**
 * @file
 * SpecSource: a pull-based stream of DesignSpecs — the producer side
 * of the streaming sweep pipeline. Where a std::vector<DesignSpec>
 * forces every design point of a sweep to exist in memory up front, a
 * SpecSource yields points one at a time, so a 10k-point grid is
 * never materialized as a whole and a sweep can start evaluating
 * before the last point is even generated.
 *
 * Sources are single-consumer iterators: next() is not thread-safe
 * (the SweepEngine serializes its pulls), and a drained source stays
 * drained unless it documents a reset().
 */

#ifndef CAMJ_SPEC_SOURCE_H
#define CAMJ_SPEC_SOURCE_H

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <vector>

#include "spec/spec.h"

namespace camj::spec
{

/**
 * One design point as a sweep worker holds it: the spec and, when the
 * source built it, its materialization. A worker keeps one SpecPoint
 * for all its pulls from one source (SpecSource::nextPoint), so the
 * source can rebuild the Design held here in place instead of
 * materializing every point from its spec. A SpecPoint serves one
 * source: what a source left in it is meaningless to another.
 */
struct SpecPoint
{
    DesignSpec spec;
    /**
     * Set when the source materialized spec: then either error is
     * null and design() is what spec.materialize() returns, or error
     * holds what spec.materialize() throws. Empty: the evaluator
     * materializes spec itself. The source's workspace: a copy of its
     * materialized base, rebuilt in place for each point.
     */
    std::optional<MaterializedSpec> built;
    std::exception_ptr error;

    /** The Design; valid when built is set and error is null. */
    const Design &design() const { return built->design(); }
};

/** A pull-based stream of design points. */
class SpecSource
{
  public:
    virtual ~SpecSource() = default;

    /** The next design point, or nullopt when the stream is done. */
    virtual std::optional<DesignSpec> next() = 0;

    /**
     * Total points the source will yield (including already-yielded
     * ones), when known; nullopt for unbounded/unknown streams. Used
     * by the SweepEngine to clamp its worker count.
     */
    virtual std::optional<size_t> sizeHint() const
    {
        return std::nullopt;
    }

    /**
     * True when nextIndexed() may be called from several threads at
     * once. Sources backed by random access (a vector, a grid
     * expansion) claim this so sweep workers can produce points
     * concurrently off an atomic cursor instead of serializing under
     * the engine's source lock.
     */
    virtual bool concurrentPulls() const { return false; }

    /**
     * Pull one point together with its 0-based stream index (the
     * identity InOrderSink and shard mergers key on). Only called by
     * the engine when concurrentPulls() is true; such sources must
     * make it thread-safe. @throws InternalError by default.
     */
    virtual std::optional<DesignSpec> nextIndexed(size_t &index);

    /**
     * Pull the next point into @p point together with its stream
     * index, as nextIndexed() does. A source that can materialize a
     * point more cheaply than spec.materialize() does so here (see
     * SpecPoint); the default pulls nextIndexed() and leaves the point
     * unmaterialized. Only called when concurrentPulls() is true, and
     * thread-safe as nextIndexed() is.
     *
     * @return false when the stream is done.
     */
    virtual bool nextPoint(size_t &index, SpecPoint &point);

    /**
     * Always nullopt. Earlier evaluators took the spec field paths
     * that differ between two points as a re-run hint; none does
     * now, and this stays only so callers written against it (the
     * benchmark under perfbench/) keep compiling.
     */
    std::optional<std::vector<std::string>> changedPaths(
        size_t /*from*/, size_t /*to*/) const
    {
        return std::nullopt;
    }
};

/**
 * A SpecSource with random access: every point can be produced by its
 * 0-based index without disturbing the stream cursor. This is the
 * contract sharding builds on — a ShardSpecSource re-enumerates an
 * arbitrary index subset of any indexable source, so the same grid
 * document can be split across processes and hosts while every point
 * keeps its global identity.
 */
class IndexableSpecSource : public SpecSource
{
  public:
    /** The spec of point @p index without advancing the stream.
     *  Thread-safe. @throws ConfigError when out of range. */
    virtual DesignSpec at(size_t index) const = 0;

    /** Point @p index into @p point, as nextPoint() fills it; the
     *  default is at(index), unmaterialized. Thread-safe. */
    virtual void pointAt(size_t index, SpecPoint &point) const;

    /** Total points the source covers (same value sizeHint()
     *  reports, but never unknown). */
    virtual size_t totalPoints() const = 0;
};

/** A source over an owned vector (the batch API's adapter).
 *  Supports concurrent pulls. */
class VectorSpecSource : public IndexableSpecSource
{
  public:
    explicit VectorSpecSource(std::vector<DesignSpec> specs)
        : specs_(std::move(specs))
    {
    }

    std::optional<DesignSpec> next() override;
    std::optional<size_t> sizeHint() const override
    {
        return specs_.size();
    }
    bool concurrentPulls() const override { return true; }
    std::optional<DesignSpec> nextIndexed(size_t &index) override;

    DesignSpec at(size_t index) const override;
    size_t totalPoints() const override { return specs_.size(); }

    /** Rewind to the first point (not thread-safe). */
    void reset() { cursor_.store(0, std::memory_order_relaxed); }

  private:
    std::vector<DesignSpec> specs_;
    std::atomic<size_t> cursor_{0};
};

/**
 * A source driven by a generator function: the callback receives the
 * running point index (0, 1, 2, ...) and returns the spec for that
 * index, or nullopt to end the stream. Lets procedural generators
 * (e.g. the paper-study registry) feed a sweep lazily.
 */
class GeneratorSpecSource : public SpecSource
{
  public:
    using Generator = std::function<std::optional<DesignSpec>(size_t)>;

    /** @param size_hint Total points when known (see sizeHint()). */
    explicit GeneratorSpecSource(
        Generator generate,
        std::optional<size_t> size_hint = std::nullopt);

    std::optional<DesignSpec> next() override;
    std::optional<size_t> sizeHint() const override { return hint_; }

  private:
    Generator generate_;
    std::optional<size_t> hint_;
    size_t cursor_ = 0;
    bool done_ = false;
};

} // namespace camj::spec

#endif // CAMJ_SPEC_SOURCE_H

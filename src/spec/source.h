/**
 * @file
 * SpecSource: a finite, indexed set of DesignSpecs — the producer side
 * of the streaming sweep pipeline. Where a std::vector<DesignSpec>
 * forces every design point of a sweep to exist in memory up front, a
 * SpecSource builds point i when it is asked for it, so a 10k-point
 * grid is never materialized as a whole and a sweep can start
 * evaluating before the last point is even built.
 *
 * A source has no cursor of its own: the SweepEngine walks
 * [0, totalPoints()) with one atomic cursor and asks for each point
 * by index, from any worker thread. Every index is a point's identity
 * (the one InOrderSink and shard mergers key on), so at(i) and
 * pointAt(i) must be thread-safe and give the same point however
 * often and in whatever order they are called.
 */

#ifndef CAMJ_SPEC_SOURCE_H
#define CAMJ_SPEC_SOURCE_H

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "spec/spec.h"

namespace camj::spec
{

/**
 * One design point as a sweep worker holds it: the spec and, when the
 * source built it, its materialization. A worker keeps one SpecPoint
 * for all the points it takes from one source (SpecSource::pointAt),
 * so the source can rebuild the spec and the Design held here in
 * place instead of building every point anew. A SpecPoint serves one
 * source at a time: what a source left in it is meaningless to
 * another, which starts over (sourceId).
 */
struct SpecPoint
{
    /** The point's spec. A source may leave it to rebuild in place:
     *  change nothing in the point between two calls. */
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
    /**
     * Which source filled the point last: a source that builds points
     * in place (GridSpecSource numbers its instances from 1) does so
     * only over a point it filled itself, and starts over from its
     * base otherwise. 0: no such source.
     */
    uint64_t sourceId = 0;

    /** The Design; valid when built is set and error is null. */
    const Design &design() const { return built->design(); }
};

/**
 * A finite set of design points, each produced by its 0-based index.
 * This is also the contract sharding builds on: a ShardSpecSource
 * re-indexes an arbitrary index subset of any source, so the same
 * grid document can be split across processes and hosts while every
 * point keeps its global identity.
 */
class SpecSource
{
  public:
    virtual ~SpecSource() = default;

    /** Points the source covers: indices [0, totalPoints()). */
    virtual size_t totalPoints() const = 0;

    /** The spec of point @p index. Thread-safe.
     *  @throws ConfigError when out of range. */
    virtual DesignSpec at(size_t index) const = 0;

    /**
     * Point @p index into a sweep worker's @p point. A source that can
     * materialize a point more cheaply than spec.materialize() does so
     * here (see SpecPoint); the default is at(index), unmaterialized.
     * Thread-safe.
     */
    virtual void pointAt(size_t index, SpecPoint &point) const;

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

/** A source over an owned vector (the batch API's adapter). */
class VectorSpecSource : public SpecSource
{
  public:
    explicit VectorSpecSource(std::vector<DesignSpec> specs)
        : specs_(std::move(specs))
    {
    }

    size_t totalPoints() const override { return specs_.size(); }
    DesignSpec at(size_t index) const override;

  private:
    std::vector<DesignSpec> specs_;
};

/**
 * A source driven by a generator function: at(i) calls the generator
 * with i and returns the spec it builds. Lets procedural generators
 * (e.g. the paper-study registry) feed a sweep lazily.
 *
 * The generator runs under the source's mutex, so it is never called
 * from two threads at once, but a sweep may ask for its indices in
 * any order: it must be a pure function of the index.
 */
class GeneratorSpecSource : public SpecSource
{
  public:
    using Generator = std::function<std::optional<DesignSpec>(size_t)>;

    /** @param points The indices the generator covers, [0, points).
     *  @throws ConfigError on a null generator. */
    GeneratorSpecSource(Generator generate, size_t points);

    size_t totalPoints() const override { return points_; }

    /** @throws ConfigError when @p index is out of range or the
     *  generator returns nullopt for it. */
    DesignSpec at(size_t index) const override;

  private:
    Generator generate_;
    size_t points_;
    mutable std::mutex mutex_;
};

} // namespace camj::spec

#endif // CAMJ_SPEC_SOURCE_H

/**
 * @file
 * ResultSinks: the consumer side of the streaming sweep pipeline.
 * Workers push completed SweepResults into a sink as they finish,
 * instead of the engine buffering everything into one vector; a sink
 * decides what to keep (everything, the top K, a file, a callback)
 * and can stop the sweep early by returning false from accept().
 *
 * The engine serializes all accept()/finish() calls under one lock,
 * so sinks never need their own synchronization. Delivery arrives in
 * COMPLETION order (whichever worker finishes first); wrap a sink in
 * InOrderSink to restore input order — that adapter is what makes the
 * streaming path bit-compatible with the classic vector API.
 */

#ifndef CAMJ_EXPLORE_SINK_H
#define CAMJ_EXPLORE_SINK_H

#include <cstddef>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "explore/sweep_result.h"

namespace camj
{

/** Consumer of a stream of sweep results. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /**
     * One completed design point. Calls are serialized by the engine
     * (never concurrent) but arrive in completion order.
     *
     * @return false to cancel the sweep: workers stop pulling new
     *         points and in-flight results are dropped.
     */
    virtual bool accept(SweepResult result) = 0;

    /** End of stream — called exactly once, also after cancellation
     *  or an empty sweep. */
    virtual void finish() {}
};

/** Collects every result; results() is sorted into input order. */
class CollectSink : public ResultSink
{
  public:
    bool accept(SweepResult result) override;
    void finish() override;

    /** The collected results in input (index) order; valid after the
     *  sweep returns. */
    std::vector<SweepResult> &results() { return results_; }
    const std::vector<SweepResult> &results() const { return results_; }

    /** Move the collected results out. */
    std::vector<SweepResult> take() { return std::move(results_); }

  private:
    std::vector<SweepResult> results_;
};

/** Forwards each result to a callback, in completion order. The
 *  callback's return value is the accept() verdict (false cancels). */
class CallbackSink : public ResultSink
{
  public:
    using Callback = std::function<bool(SweepResult)>;
    using Finisher = std::function<void()>;

    explicit CallbackSink(Callback on_result, Finisher on_finish = {});

    bool accept(SweepResult result) override;
    void finish() override;

  private:
    Callback onResult_;
    Finisher onFinish_;
};

/**
 * Order-restoring adapter: buffers out-of-order completions and
 * forwards to the inner sink strictly by ascending index (0, 1, 2,
 * ...). With this adapter a streaming sweep delivers the exact
 * sequence runSerial() would produce. Buffered results that can no
 * longer be flushed (cancellation) are dropped at finish().
 */
class InOrderSink : public ResultSink
{
  public:
    /** @p inner must outlive this adapter. */
    explicit InOrderSink(ResultSink &inner) : inner_(inner) {}

    bool accept(SweepResult result) override;
    void finish() override;

    /** Results waiting for an earlier index (diagnostic). */
    size_t pending() const { return pending_.size(); }

  private:
    ResultSink &inner_;
    std::map<size_t, SweepResult> pending_;
    size_t nextIndex_ = 0;
};

/**
 * Index-remapping adapter: rewrites each result's stream index
 * through a mapper before forwarding. runShard composes
 * InOrderSink -> ReindexSink -> its caller's sink: the engine and the
 * in-order adapter see a shard's dense LOCAL indices (0, 1, ...),
 * while the JSONL lines carry the GLOBAL grid indices the merge
 * reducer keys on (assignment.globalIndex).
 */
class ReindexSink : public ResultSink
{
  public:
    using Mapper = std::function<size_t(size_t)>;

    /** @p inner must outlive this adapter. @throws ConfigError on a
     *  null mapper. */
    ReindexSink(ResultSink &inner, Mapper map);

    bool accept(SweepResult result) override;
    void finish() override { inner_.finish(); }

  private:
    ResultSink &inner_;
    Mapper map_;
};

/**
 * Keeps the K best feasible points by total energy (ascending — the
 * design-space-exploration "give me the most efficient candidates"
 * selector); infeasible points only count toward dropped().
 */
class TopKSink : public ResultSink
{
  public:
    /** @throws ConfigError unless k >= 1. */
    explicit TopKSink(size_t k);

    bool accept(SweepResult result) override;
    void finish() override;

    /** The best <= K results, ascending by totalEnergy(); valid after
     *  the sweep returns. */
    const std::vector<SweepResult> &best() const { return best_; }

    /** Points not retained (worse than the K best, or infeasible). */
    size_t dropped() const { return dropped_; }

  private:
    size_t k_;
    std::vector<SweepResult> best_; // kept sorted, size <= k_
    size_t dropped_ = 0;
};

/**
 * Writes each result as one JSON line (JSONL) to a stream — the
 * cross-process sharding format: each shard of a spec batch appends
 * its lines, and a reducer merges shard files by the "index" member.
 * Lines carry the verdict, per-category energies [J], totals, and the
 * noise metric; they do not embed the full per-unit report.
 */
class JsonlSink : public ResultSink
{
  public:
    /** @p out must outlive this sink. */
    explicit JsonlSink(std::ostream &out) : out_(out) {}

    bool accept(SweepResult result) override;
    void finish() override;

    size_t written() const { return written_; }

  private:
    std::ostream &out_;
    size_t written_ = 0;
    /** The line being written, reused from line to line. */
    std::string line_;
};

/**
 * Append @p result's JSONL line (no trailing newline) to @p out,
 * written member by member through json::Writer. A sink that keeps
 * one buffer renders every line without allocating once the buffer
 * has grown. @throws ConfigError when a number is not finite; @p out
 * then holds a partial line.
 */
void sweepResultToJsonl(const SweepResult &result, std::string &out);

/** One result -> its JSONL line (no trailing newline). */
std::string sweepResultToJsonl(const SweepResult &result);

} // namespace camj

#endif // CAMJ_EXPLORE_SINK_H

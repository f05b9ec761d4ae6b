/**
 * @file
 * The algorithm DAG: stages plus producer/consumer edges, with the
 * well-formedness checks the paper's "pre-simulation check" performs
 * on the software side (acyclicity, arity, shape compatibility).
 */

#ifndef CAMJ_SW_GRAPH_H
#define CAMJ_SW_GRAPH_H

#include <cstdint>
#include <string>
#include <vector>

#include "sw/stage.h"

namespace camj
{

/** Stage handle inside a SwGraph. */
using StageId = int;

/**
 * A directed acyclic graph of algorithm stages.
 *
 * Mirrors the paper's camj_sw_config(): stages are added, then wired
 * with connect() (the set_input_stage of the Python interface).
 */
class SwGraph
{
  public:
    /**
     * Add a stage.
     *
     * @return Handle used for wiring and queries.
     * @throws ConfigError on duplicate stage names.
     */
    StageId addStage(StageParams params);

    /**
     * Declare @p producer as an input of @p consumer. Order of
     * connect() calls defines operand order for two-input stages.
     *
     * @throws ConfigError on invalid ids, duplicate edges, or arity
     *         overflow.
     */
    void connect(StageId producer, StageId consumer);

    /** Number of stages. */
    int size() const { return static_cast<int>(stages_.size()); }

    /** Stage by handle. */
    const Stage &stage(StageId id) const;

    /** Stage handle by name. @throws ConfigError if absent. */
    StageId findStage(const std::string &name) const;

    /** Producers of @p id in operand order. */
    const std::vector<StageId> &inputsOf(StageId id) const;

    /** Consumers of @p id. */
    const std::vector<StageId> &outputsOf(StageId id) const;

    /** Stages with no consumers (the DAG sinks / MIPI boundary). */
    std::vector<StageId> sinks() const;

    /** Stages with op == Input. */
    std::vector<StageId> inputs() const;

    /**
     * Topological order of the DAG.
     *
     * @throws ConfigError if the graph contains a cycle.
     */
    std::vector<StageId> topoOrder() const;

    /**
     * Full well-formedness check: at least one Input stage, every
     * stage has exactly its arity of producers, producer output shapes
     * match consumer input shapes, the graph is acyclic, and every
     * non-sink output is consumed.
     *
     * @throws ConfigError describing the first violation found.
     */
    void validate() const;

    /** validate(), leaving the topological order in @p order (the
     *  acyclicity check computes it) with @p indegree as scratch: a
     *  caller that keeps both allocates nothing once they have
     *  grown. */
    void validate(std::vector<StageId> &order,
                  std::vector<int> &indegree) const;

    /** Sum of opsPerFrame over all stages. */
    int64_t totalOpsPerFrame() const;

  private:
    std::vector<Stage> stages_;
    std::vector<std::vector<StageId>> inEdges_;
    std::vector<std::vector<StageId>> outEdges_;

    void checkId(StageId id, const char *who) const;

    /** topoOrder() into @p order, with @p indegree as scratch.
     *  @throws ConfigError if the graph contains a cycle. */
    void topoOrder(std::vector<StageId> &order,
                   std::vector<int> &indegree) const;
};

} // namespace camj

#endif // CAMJ_SW_GRAPH_H

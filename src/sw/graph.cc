#include "sw/graph.h"

#include <algorithm>

#include "common/logging.h"

namespace camj
{

StageId
SwGraph::addStage(StageParams params)
{
    for (const auto &s : stages_) {
        if (s.name() == params.name)
            fatal(Rule::E002, "SwGraph: duplicate stage name '%s'",
                  params.name.c_str());
    }
    stages_.emplace_back(std::move(params));
    inEdges_.emplace_back();
    outEdges_.emplace_back();
    return static_cast<StageId>(stages_.size()) - 1;
}

void
SwGraph::checkId(StageId id, const char *who) const
{
    if (id < 0 || id >= size())
        fatal("SwGraph::%s: invalid stage id %d", who, id);
}

void
SwGraph::connect(StageId producer, StageId consumer)
{
    checkId(producer, "connect");
    checkId(consumer, "connect");
    if (producer == consumer)
        fatal(Rule::E007, "SwGraph: self-loop on stage '%s'",
              stages_[producer].name().c_str());

    auto &ins = inEdges_[consumer];
    if (std::find(ins.begin(), ins.end(), producer) != ins.end())
        fatal(Rule::E007, "SwGraph: duplicate edge %s -> %s",
              stages_[producer].name().c_str(),
              stages_[consumer].name().c_str());

    int arity = stages_[consumer].numInputs();
    if (static_cast<int>(ins.size()) >= arity)
        fatal(Rule::E004,
              "SwGraph: stage '%s' (%s) accepts %d input(s); extra "
              "edge from '%s'", stages_[consumer].name().c_str(),
              stageOpName(stages_[consumer].op()), arity,
              stages_[producer].name().c_str());

    ins.push_back(producer);
    outEdges_[producer].push_back(consumer);
}

const Stage &
SwGraph::stage(StageId id) const
{
    checkId(id, "stage");
    return stages_[id];
}

StageId
SwGraph::findStage(const std::string &name) const
{
    for (StageId i = 0; i < size(); ++i) {
        if (stages_[i].name() == name)
            return i;
    }
    fatal(Rule::E003, "SwGraph: no stage named '%s'", name.c_str());
}

const std::vector<StageId> &
SwGraph::inputsOf(StageId id) const
{
    checkId(id, "inputsOf");
    return inEdges_[id];
}

const std::vector<StageId> &
SwGraph::outputsOf(StageId id) const
{
    checkId(id, "outputsOf");
    return outEdges_[id];
}

std::vector<StageId>
SwGraph::sinks() const
{
    std::vector<StageId> result;
    for (StageId i = 0; i < size(); ++i) {
        if (outEdges_[i].empty())
            result.push_back(i);
    }
    return result;
}

std::vector<StageId>
SwGraph::inputs() const
{
    std::vector<StageId> result;
    for (StageId i = 0; i < size(); ++i) {
        if (stages_[i].op() == StageOp::Input)
            result.push_back(i);
    }
    return result;
}

std::vector<StageId>
SwGraph::topoOrder() const
{
    std::vector<StageId> order;
    std::vector<int> indegree;
    topoOrder(order, indegree);
    return order;
}

void
SwGraph::topoOrder(std::vector<StageId> &order,
                   std::vector<int> &indegree) const
{
    indegree.resize(stages_.size());
    for (StageId i = 0; i < size(); ++i)
        indegree[i] = static_cast<int>(inEdges_[i].size());

    // Kahn's algorithm, FIFO: order doubles as the queue, its
    // unvisited tail the stages ready but not yet expanded.
    order.clear();
    order.reserve(stages_.size());
    for (StageId i = 0; i < size(); ++i) {
        if (indegree[i] == 0)
            order.push_back(i);
    }
    for (size_t head = 0; head < order.size(); ++head) {
        for (StageId next : outEdges_[order[head]]) {
            if (--indegree[next] == 0)
                order.push_back(next);
        }
    }

    if (order.size() != stages_.size())
        fatal(Rule::E007,
              "SwGraph: cycle detected (%zu of %zu stages orderable)",
              order.size(), stages_.size());
}

void
SwGraph::validate() const
{
    std::vector<StageId> order;
    std::vector<int> indegree;
    validate(order, indegree);
}

void
SwGraph::validate(std::vector<StageId> &order,
                  std::vector<int> &indegree) const
{
    if (stages_.empty())
        fatal(Rule::E007, "SwGraph: empty graph");
    if (std::none_of(stages_.begin(), stages_.end(), [](const Stage &s) {
            return s.op() == StageOp::Input;
        }))
        fatal(Rule::E007, "SwGraph: no Input stage");

    for (StageId i = 0; i < size(); ++i) {
        const Stage &s = stages_[i];
        int want = s.numInputs();
        int have = static_cast<int>(inEdges_[i].size());
        if (have != want) {
            fatal(Rule::E004,
                  "SwGraph: stage '%s' (%s) needs %d input(s), has %d",
                  s.name().c_str(), stageOpName(s.op()), want, have);
        }
        for (StageId producer : inEdges_[i]) {
            const Stage &p = stages_[producer];
            if (p.outputSize() != s.inputSize()) {
                fatal(Rule::E006,
                      "SwGraph: shape mismatch on edge %s (%s) -> %s "
                      "(expects %s)", p.name().c_str(),
                      p.outputSize().str().c_str(), s.name().c_str(),
                      s.inputSize().str().c_str());
            }
        }
    }

    // Acyclicity (throws on failure).
    topoOrder(order, indegree);
}

int64_t
SwGraph::totalOpsPerFrame() const
{
    int64_t total = 0;
    for (const auto &s : stages_)
        total += s.opsPerFrame();
    return total;
}

} // namespace camj

#include "digital/dcompute.h"

#include <algorithm>

#include "common/logging.h"

namespace camj
{

ComputeUnit::ComputeUnit(ComputeUnitParams params)
    : params_(std::move(params))
{
    if (params_.name.empty())
        fatal(Rule::E017, "ComputeUnit: empty name");
    if (!params_.inputPixelsPerCycle.valid() ||
        !params_.outputPixelsPerCycle.valid())
        fatal(Rule::E017, "ComputeUnit %s: invalid per-cycle shapes",
              params_.name.c_str());
    if (params_.energyPerCycle < 0.0)
        fatal(Rule::E017, "ComputeUnit %s: negative energy per cycle",
              params_.name.c_str());
    if (params_.numStages < 1)
        fatal(Rule::E017, "ComputeUnit %s: pipeline depth must be >= 1",
              params_.name.c_str());
    if (params_.clock <= 0.0)
        fatal(Rule::E017,
              "ComputeUnit %s: non-positive clock", params_.name.c_str());
    if (params_.opsPerCycle < 0)
        fatal(Rule::E017, "ComputeUnit %s: negative ops per cycle",
              params_.name.c_str());
}

int64_t
ComputeUnit::activeCyclesForOutputs(int64_t total_outputs) const
{
    if (total_outputs < 0)
        fatal(Rule::E017, "ComputeUnit %s: negative output count",
              params_.name.c_str());
    int64_t per_cycle = params_.outputPixelsPerCycle.count();
    return (total_outputs + per_cycle - 1) / per_cycle;
}

int64_t
ComputeUnit::cyclesForStage(int64_t total_outputs, int64_t total_ops) const
{
    if (total_ops < 0)
        fatal(Rule::E017,
              "ComputeUnit %s: negative op count", params_.name.c_str());
    int64_t cycles = activeCyclesForOutputs(total_outputs);
    if (params_.opsPerCycle > 0) {
        int64_t op_bound = (total_ops + params_.opsPerCycle - 1) /
                           params_.opsPerCycle;
        cycles = std::max(cycles, op_bound);
    }
    return cycles;
}

Energy
ComputeUnit::energyForCycles(int64_t cycles) const
{
    if (cycles < 0)
        fatal(Rule::E017, "ComputeUnit %s: negative cycle count",
              params_.name.c_str());
    return params_.energyPerCycle * static_cast<double>(cycles);
}

SystolicArray::SystolicArray(SystolicArrayParams params)
    : params_(std::move(params))
{
    if (params_.name.empty())
        fatal(Rule::E017, "SystolicArray: empty name");
    if (params_.rows < 1 || params_.cols < 1)
        fatal(Rule::E017, "SystolicArray %s: dimensions must be >= 1",
              params_.name.c_str());
    if (params_.energyPerMac < 0.0)
        fatal(Rule::E017, "SystolicArray %s: negative per-MAC energy",
              params_.name.c_str());
    if (params_.clock <= 0.0)
        fatal(Rule::E017, "SystolicArray %s: non-positive clock",
              params_.name.c_str());
}

Area
SystolicArray::area() const
{
    return params_.peArea * params_.rows * params_.cols;
}

SystolicMapping
SystolicArray::mapStage(const Stage &stage) const
{
    switch (stage.op()) {
      case StageOp::Conv2d:
      case StageOp::DepthwiseConv2d:
      case StageOp::FullyConnected:
        break;
      default:
        fatal(Rule::E008, "SystolicArray %s: cannot map %s stage '%s'",
              params_.name.c_str(), stageOpName(stage.op()),
              stage.name().c_str());
    }

    const int64_t out_channels = stage.outputSize().channels;
    const int64_t out_pixels = stage.outputSize().width *
                               stage.outputSize().height;
    const int64_t reduction = stage.opsPerOutput();

    // Weight-stationary tiling: output channels across rows, output
    // pixels across columns; each tile streams the reduction dimension
    // plus a (rows + cols) fill/drain bubble.
    const int64_t row_tiles =
        (out_channels + params_.rows - 1) / params_.rows;
    const int64_t col_tiles =
        (out_pixels + params_.cols - 1) / params_.cols;
    const int64_t bubble = params_.rows + params_.cols;

    SystolicMapping m;
    m.macs = stage.opsPerFrame();
    m.cycles = row_tiles * col_tiles * (reduction + bubble);
    if (m.cycles <= 0)
        panic("SystolicArray %s: non-positive cycle estimate",
              params_.name.c_str());

    const double ideal =
        static_cast<double>(m.macs) /
        static_cast<double>(params_.rows * params_.cols);
    m.utilization = ideal / static_cast<double>(m.cycles);
    m.energy = params_.energyPerMac * static_cast<double>(m.macs);
    return m;
}

} // namespace camj

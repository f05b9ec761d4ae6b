/**
 * @file
 * Digital compute units: the generic pipelined accelerator
 * (ComputeUnit) and the systolic array of Table 1. A ComputeUnit is
 * described exactly as in the paper's Fig. 5: the shape of pixels
 * read per cycle, the shape produced per cycle, energy per cycle, and
 * pipeline depth. The systolic array adds a SCALE-Sim-style mapping
 * estimate for DNN stages.
 */

#ifndef CAMJ_DIGITAL_DCOMPUTE_H
#define CAMJ_DIGITAL_DCOMPUTE_H

#include <cstdint>
#include <string>

#include "common/layer.h"
#include "common/shape.h"
#include "common/units.h"
#include "sw/stage.h"

namespace camj
{

/** Construction parameters of a generic pipelined accelerator. */
struct ComputeUnitParams
{
    std::string name;
    Layer layer = Layer::Sensor;
    /** Pixels consumed per cycle (the paper's input_pixel_per_cycle). */
    Shape inputPixelsPerCycle = {1, 1, 1};
    /** Pixels produced per cycle. */
    Shape outputPixelsPerCycle = {1, 1, 1};
    /** Dynamic energy per active cycle [J]. */
    Energy energyPerCycle = 0.0;
    /** Pipeline depth (num_stages in the paper). */
    int numStages = 1;
    /** Operating clock [Hz]. */
    Frequency clock = 50e6;
    /**
     * Arithmetic ops the unit retires per cycle. When positive, the
     * cycle count of a stage is additionally bounded below by
     * ops / opsPerCycle (a single-MAC engine takes one cycle per MAC
     * regardless of its output rate). 0 = output-rate limited only.
     */
    int64_t opsPerCycle = 0;
    /** Silicon area [m^2] (0 = unknown). */
    Area area = 0.0;

    bool operator==(const ComputeUnitParams &) const = default;
};

/** A generic pipelined accelerator. */
class ComputeUnit
{
  public:
    /** @throws ConfigError on invalid parameters. */
    explicit ComputeUnit(ComputeUnitParams params);

    const std::string &name() const { return params_.name; }
    Layer layer() const { return params_.layer; }
    const Shape &inputPixelsPerCycle() const
    {
        return params_.inputPixelsPerCycle;
    }
    const Shape &outputPixelsPerCycle() const
    {
        return params_.outputPixelsPerCycle;
    }
    Energy energyPerCycle() const { return params_.energyPerCycle; }
    int numStages() const { return params_.numStages; }
    Frequency clock() const { return params_.clock; }
    int64_t opsPerCycle() const { return params_.opsPerCycle; }
    Area area() const { return params_.area; }

    /**
     * Active cycles needed to produce @p total_outputs pixels
     * (Eq. 15 cycle count before pipeline-fill overhead).
     */
    int64_t activeCyclesForOutputs(int64_t total_outputs) const;

    /**
     * Active cycles for a stage: the output-rate bound, raised to the
     * op-rate bound when opsPerCycle is set.
     */
    int64_t cyclesForStage(int64_t total_outputs, int64_t total_ops) const;

    /** Eq. 15: energy for @p cycles active cycles. */
    Energy energyForCycles(int64_t cycles) const;

  private:
    ComputeUnitParams params_;
};

/** Construction parameters of a systolic array. */
struct SystolicArrayParams
{
    std::string name;
    Layer layer = Layer::Sensor;
    int rows = 16;
    int cols = 16;
    /** Energy of one MAC including local register traffic [J]. */
    Energy energyPerMac = 0.0;
    Frequency clock = 100e6;
    /** Area of one PE [m^2] (0 = unknown). */
    Area peArea = 0.0;

    bool operator==(const SystolicArrayParams &) const = default;
};

/** Cycle/energy estimate of one DNN stage on a systolic array. */
struct SystolicMapping
{
    int64_t cycles = 0;
    int64_t macs = 0;
    /** Average fraction of PEs doing useful work. */
    double utilization = 0.0;
    Energy energy = 0.0;
};

/**
 * A weight-stationary systolic array. The mapping model tiles output
 * channels over rows and output pixels over columns, adding the
 * row+col pipeline-fill bubble per tile (SCALE-Sim-style first-order
 * estimate).
 */
class SystolicArray
{
  public:
    /** @throws ConfigError on invalid parameters. */
    explicit SystolicArray(SystolicArrayParams params);

    const std::string &name() const { return params_.name; }
    Layer layer() const { return params_.layer; }
    int rows() const { return params_.rows; }
    int cols() const { return params_.cols; }
    Frequency clock() const { return params_.clock; }
    Energy energyPerMac() const { return params_.energyPerMac; }
    Area area() const;

    /**
     * Map one DNN stage (Conv2d / DepthwiseConv2d / FullyConnected)
     * onto the array.
     *
     * @throws ConfigError for non-DNN stage ops.
     */
    SystolicMapping mapStage(const Stage &stage) const;

  private:
    SystolicArrayParams params_;
};

} // namespace camj

#endif // CAMJ_DIGITAL_DCOMPUTE_H

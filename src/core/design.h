/**
 * @file
 * The Design: CamJ's top-level object. It holds the three decoupled
 * descriptions of Sec. 3.3 — the algorithm DAG (SwGraph), the
 * hardware (an ordered analog chain plus a digital memory/compute
 * pipeline and communication interfaces), and the mapping between
 * them, one hardware target per stage — and runs the full Sec. 4
 * methodology in simulate():
 *
 *   pre-simulation checks -> cycle-level digital simulation ->
 *   delay estimation -> analog / digital / communication energy
 *   models -> EnergyReport.
 *
 * A Design is built from a validated spec::DesignSpec and only so
 * (DesignSpec::materialize(), spec::DesignBuilder::build(),
 * spec::MaterializedSpec), so every name it holds is unique and every
 * reference between its parts is an index validation resolved.
 */

#ifndef CAMJ_CORE_DESIGN_H
#define CAMJ_CORE_DESIGN_H

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "analog/afa.h"
#include "comm/interface.h"
#include "core/report.h"
#include "digital/dcompute.h"
#include "digital/dmemory.h"
#include "sw/graph.h"

namespace camj
{

struct CycleSimStats;

namespace spec
{
class MaterializedSpec;
} // namespace spec

/** Role of an analog array, for energy-category accounting. */
enum class AnalogRole
{
    /** Pixel array: part of SEN. */
    Sensing,
    /** ADC array: part of SEN ("everything up to and including
     *  ADCs"). */
    Adc,
    /** Analog processing element: COMP-A. */
    AnalogCompute,
    /** Analog memory: MEM-A. */
    AnalogMemory,
};

/** Top-level design parameters. */
struct DesignParams
{
    std::string name;
    /** Target frame rate [fps]; the prescribed rate of Sec. 4.1. */
    double fps = 30.0;
    /** Digital clock for the cycle-level simulation [Hz]. */
    Frequency digitalClock = 50e6;
};

/** The class of hardware a stage is mapped onto; None marks a stage
 *  the mapping leaves out. */
enum class HwKind : unsigned char
{
    None,
    Analog,
    Memory,
    Unit,
};

/** Where one stage runs (the paper's camj_mapping()): the class of
 *  its hardware and the hardware's index among that class, in
 *  registration order. */
struct HwTarget
{
    HwKind kind = HwKind::None;
    int index = -1;
};

/** A computational-CIS design, ready to simulate. */
class Design
{
  public:
    const std::string &name() const { return params_.name; }
    double fps() const { return params_.fps; }

    /**
     * Run all checks and the energy estimation for one frame — every
     * stage of the evaluation pipeline (core/pipeline.h) in order.
     *
     * @param sim_stats When non-null, receives the cycle-sim
     *        execution diagnostics of the run (how the digital
     *        simulation executed, not what it computed).
     * @throws ConfigError on any failed pre-simulation check, a
     *         pipeline stall, or a missed FPS target.
     */
    EnergyReport simulate(CycleSimStats *sim_stats = nullptr) const;

  private:
    friend class EvalPipeline;
    /** Builds a Design part by part from a DesignSpec, and rebuilds
     *  only the parts an edit of that spec feeds (spec/spec.h). */
    friend class spec::MaterializedSpec;

    /** An empty design for MaterializedSpec to fill in; the spec's
     *  checks stand in for a constructor's. */
    Design() = default;

    struct AnalogEntry
    {
        AnalogArray array;
        AnalogRole role;
    };

    struct UnitEntry
    {
        std::variant<ComputeUnit, SystolicArray> unit;
        /** Memory indices of the input ports, in port order. */
        std::vector<int> inputMems;
        std::vector<int> outputMems;

        const std::string &name() const;
        Layer layer() const;
        Area area() const;
    };

    DesignParams params_;
    SwGraph sw_;
    /** Per StageId, the hardware it is mapped onto. */
    std::vector<HwTarget> targets_;
    /** Insertion order = pipeline order. */
    std::vector<AnalogEntry> analog_;
    std::vector<DigitalMemory> mems_;
    std::vector<UnitEntry> units_;
    /** The memory the ADC (last analog array) writes; -1 for none. */
    int adcOutputMem_ = -1;
    std::optional<CommInterface> mipi_;
    std::optional<CommInterface> tsv_;
    /** The final output's data volume [B] when it overrides the last
     *  stage's output bytes (ROI encoding); -1 for none. */
    int64_t outputBytesOverride_ = -1;
};

} // namespace camj

#endif // CAMJ_CORE_DESIGN_H

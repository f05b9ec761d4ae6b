/**
 * @file
 * The Design: CamJ's top-level object. It owns the three decoupled
 * descriptions of Sec. 3.3 — the algorithm DAG (SwGraph), the
 * hardware (an ordered analog chain plus a digital memory/compute
 * pipeline and communication interfaces), and the Mapping between
 * them — and runs the full Sec. 4 methodology in simulate():
 *
 *   pre-simulation checks -> cycle-level digital simulation ->
 *   delay estimation -> analog / digital / communication energy
 *   models -> EnergyReport.
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
#include "core/mapping.h"
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

/** A computational-CIS design under construction. */
class Design
{
  public:
    /** @throws ConfigError on invalid parameters. */
    explicit Design(DesignParams params);

    const std::string &name() const { return params_.name; }
    double fps() const { return params_.fps; }

    /** The algorithm DAG (camj_sw_config). */
    SwGraph &sw() { return sw_; }
    const SwGraph &sw() const { return sw_; }

    /** The algorithm-to-hardware mapping (camj_mapping). */
    Mapping &mapping() { return mapping_; }
    const Mapping &mapping() const { return mapping_; }

    // ----- analog hardware (insertion order = pipeline order) -----

    /** Append an analog array to the chain. @throws ConfigError on a
     *  duplicate name. */
    void addAnalogArray(AnalogArray array, AnalogRole role);

    // ----- digital hardware -----

    /** Register a digital memory. @throws ConfigError on duplicates. */
    void addMemory(DigitalMemory mem);

    /** Register a pipelined accelerator. */
    void addComputeUnit(ComputeUnit unit);

    /** Register a systolic array. */
    void addSystolicArray(SystolicArray array);

    /** Route the ADC (last analog array) output into a memory. */
    void setAdcOutput(const std::string &mem_name);

    /** Wire a memory as the next input port of a unit (port order =
     *  call order). */
    void connectMemoryToUnit(const std::string &mem_name,
                             const std::string &unit_name);

    /** Wire a unit's output into a memory (multiple allowed). */
    void connectUnitToMemory(const std::string &unit_name,
                             const std::string &mem_name);

    // ----- communication -----

    /** Configure the MIPI CSI-2 interface. */
    void setMipi(CommInterface iface);

    /** Configure the uTSV interface for stacked designs. */
    void setTsv(CommInterface iface);

    /**
     * Override the data volume of the pipeline's final output (e.g.
     * ROI encoding shrinks the transmitted image below the produced
     * element count). Defaults to the last stage's output bytes.
     */
    void setPipelineOutputBytes(int64_t bytes);

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

    /** An empty design for MaterializedSpec to fill in; its checks
     *  stand in for the constructor's. */
    Design() = default;

    struct AnalogEntry
    {
        AnalogArray array;
        AnalogRole role;
    };

    struct UnitEntry
    {
        std::variant<ComputeUnit, SystolicArray> unit;
        std::vector<int> inputMems;
        std::vector<int> outputMems;

        const std::string &name() const;
        Layer layer() const;
        Area area() const;
    };

    DesignParams params_;
    SwGraph sw_;
    Mapping mapping_;
    std::vector<AnalogEntry> analog_;
    std::vector<DigitalMemory> mems_;
    std::vector<UnitEntry> units_;
    int adcOutputMem_ = -1;
    std::optional<CommInterface> mipi_;
    std::optional<CommInterface> tsv_;
    int64_t outputBytesOverride_ = -1;

    int findMemory(const std::string &name, const char *who) const;
    int findUnit(const std::string &name, const char *who) const;
    int findAnalog(const std::string &name) const;
    void checkUniqueHwName(const std::string &name) const;
};

} // namespace camj

#endif // CAMJ_CORE_DESIGN_H

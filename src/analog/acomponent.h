/**
 * @file
 * A-Components: analog functional components assembled from A-Cells
 * (Sec. 4.2, Eq. 4 and Eq. 13), plus factory functions for the default
 * component library of Table 1 (pixels, ADC, MAC, comparator, analog
 * memories, ...). The cell-level implementations follow the classic
 * designs the paper surveys; expert users can build custom components
 * by adding cells directly.
 */

#ifndef CAMJ_ANALOG_ACOMPONENT_H
#define CAMJ_ANALOG_ACOMPONENT_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analog/acell.h"
#include "analog/domain.h"

namespace camj
{

/** How a cell's static-bias window relates to the component timing. */
enum class TimingScope
{
    /** Biased during its own slot of the evenly-split component delay;
     *  static window per Eq. 11 (remaining time in the component). */
    SelfSlot,
    /** Biased for the component's full per-op delay. */
    ComponentSpan,
    /** Biased for the entire frame, once per frame per component
     *  (e.g. the hold buffer of an active analog frame memory). */
    Frame,
};

/** Timing context handed to a component by its array. */
struct ComponentTiming
{
    /** Delay budget of one operation of this component [s]. */
    Time opDelay = 0.0;
    /** Frame time 1/FPS [s], for Frame-scoped cells. */
    Time frameTime = 0.0;
};

/** A cell instance inside a component, with Eq. 13 access counts. */
struct CellInstance
{
    std::shared_ptr<const ACell> cell;
    /** Spatial replication inside the component. */
    int spatialCount = 1;
    /** Temporal uses per component operation (2 for CDS readout). */
    int temporalCount = 1;
    TimingScope scope = TimingScope::SelfSlot;
};

/**
 * An analog functional component: an ordered chain of A-Cells the
 * signal flows through. Cheap to copy (cells are shared immutable).
 */
class AComponent
{
  public:
    AComponent(std::string name, SignalDomain input, SignalDomain output);

    /**
     * Append a cell to the critical path.
     *
     * @param spatial Spatial count (>= 1).
     * @param temporal Temporal count (>= 1).
     * @throws ConfigError on non-positive counts or null cell.
     */
    void addCell(std::shared_ptr<const ACell> cell, int spatial = 1,
                 int temporal = 1, TimingScope scope = TimingScope::SelfSlot);

    const std::string &name() const { return name_; }
    SignalDomain inputDomain() const { return input_; }
    SignalDomain outputDomain() const { return output_; }
    int numCells() const { return static_cast<int>(cells_.size()); }
    const std::vector<CellInstance> &cells() const { return cells_; }

    /** True when a cell's energy comes from the Walden FoM survey: a
     *  NonLinearCell without an energy override. */
    bool fomSurveyed() const;

    /**
     * Energy of one operation (Eq. 4): SelfSlot/ComponentSpan cells
     * only. The per-op delay is split evenly across the critical path
     * (Eq. 11: cell k of N gets delay T/N and static window
     * T - (k-1) * T/N).
     *
     * @throws ConfigError if opDelay <= 0 while a cell needs timing.
     */
    Energy energyPerOp(const ComponentTiming &timing) const;

    /**
     * Per-frame energy of Frame-scoped cells of ONE component
     * instance (counted once per frame, not per op).
     */
    Energy energyPerFramePerComponent(const ComponentTiming &timing) const;

    /** Per-cell energy contributions of one op, for reports. */
    std::vector<std::pair<std::string, Energy>>
    cellBreakdown(const ComponentTiming &timing) const;

  private:
    std::string name_;
    SignalDomain input_;
    SignalDomain output_;
    std::vector<CellInstance> cells_;

    CellTiming timingFor(size_t idx, const ComponentTiming &t) const;
};

// ---------------------------------------------------------------------
// Default component library (Table 1). All parameters have surveyed
// defaults; override fields for custom designs.
// ---------------------------------------------------------------------

/** Active Pixel Sensor parameters. */
struct ApsParams
{
    /** Photodiode capacitance [F]. */
    Capacitance photodiodeCap = 5e-15;
    /** Floating-diffusion capacitance [F] (4T only). */
    Capacitance floatingDiffusionCap = 2e-15;
    /** Column/bitline load the source follower drives [F]. */
    Capacitance columnLoadCap = 1.0e-12;
    /** Pixel output swing [V]. */
    Voltage pixelSwing = 1.0;
    /** Analog supply [V]. */
    Voltage vdda = 2.5;
    /** Read out twice for correlated double sampling (4T default). */
    bool correlatedDoubleSampling = true;
    /** Photodiodes sharing the readout (charge-binning cluster). */
    int pixelsPerComponent = 1;

    bool operator==(const ApsParams &) const = default;
};

/** 4T APS: photodiode + floating diffusion + source follower. */
AComponent makeAps4T(const ApsParams &params = {});

/** 3T APS: photodiode + source follower, no CDS. */
AComponent makeAps3T(ApsParams params = {});

/** Digital Pixel Sensor: photodiode + in-pixel ADC. */
AComponent makeDps(int bits, const ApsParams &params = {});

/** Pulse-width-modulation pixel: photodiode + comparator, time out. */
AComponent makePwmPixel(const ApsParams &params = {});

/** Column ADC parameters. */
struct AdcParams
{
    int bits = 10;
    /** Optional fixed energy per conversion [J]; 0 = FoM survey. */
    Energy energyPerConversionOverride = 0.0;

    bool operator==(const AdcParams &) const = default;
};

/** Column/chip ADC: voltage in, digital out. */
AComponent makeColumnAdc(const AdcParams &params = {});

/** Switched-capacitor compute parameters (MAC, add, scale, abs). */
struct SwitchedCapParams
{
    /** Unit capacitor [F]; 0 = size from Eq. 6 for `bits`. */
    Capacitance unitCap = 0.0;
    /** Number of unit capacitors in the array. */
    int numCaps = 8;
    /** Signal swing [V]. */
    Voltage vswing = 1.0;
    /** Analog supply [V]. */
    Voltage vdda = 2.5;
    /** Computation precision for noise-driven cap sizing. */
    int bits = 8;
    /** Include an active opamp (false = passive charge sharing). */
    bool active = true;
    /** Opamp closed-loop gain. */
    double gain = 1.0;
    /** Opamp gm/Id factor. */
    double gmOverId = 15.0;

    bool operator==(const SwitchedCapParams &) const = default;
};

/** Switched-capacitor multiply-accumulate unit. */
AComponent makeSwitchedCapMac(const SwitchedCapParams &params = {});

/** Charge-sharing adder (passive unless params.active). */
AComponent makeChargeAdder(SwitchedCapParams params = {});

/** Charge-redistribution scaler. */
AComponent makeScaler(SwitchedCapParams params = {});

/** Absolute-value unit (switched-cap with opamp). */
AComponent makeAbsUnit(SwitchedCapParams params = {});

/** Analog maximum over n inputs (comparator tree). */
AComponent makeMaxUnit(int num_inputs);

/** Standalone comparator (1-bit non-linear cell). */
AComponent makeComparator(Energy energy_override = 0.0);

/** Logarithmic unit (subthreshold transconductor). */
AComponent makeLogUnit(Capacitance load = 50e-15, Voltage vdda = 2.5);

/** Analog memory parameters. */
struct AnalogMemoryParams
{
    /** Storage precision for noise-driven cap sizing. */
    int bits = 8;
    /** Stored swing [V]. */
    Voltage vswing = 1.0;
    /** Analog supply [V]. */
    Voltage vdda = 2.5;
    /** Storage cap [F]; 0 = size from Eq. 6. */
    Capacitance storageCap = 0.0;
    /** Readout buffer load [F] (active memory). */
    Capacitance readoutLoadCap = 0.5e-12;
    /** Average reads of each stored value per frame. */
    int readsPerValue = 1;

    bool operator==(const AnalogMemoryParams &) const = default;
};

/** Passive sample-and-hold memory: write charges the cap, read
 *  charge-shares onto the consumer. */
AComponent makePassiveAnalogMemory(const AnalogMemoryParams &params = {});

/** Active analog memory in the 4T-APS style of the paper's Fig. 10:
 *  storage cap plus source-follower readout per read. */
AComponent makeActiveAnalogMemory(const AnalogMemoryParams &params = {});

// ---------------------------------------------------------------------
// Domain-conversion components: what the pre-simulation domain check
// asks designers to insert between mismatched arrays (Sec. 3.3).
// ---------------------------------------------------------------------

/** Domain-converter parameters. */
struct ConverterParams
{
    /** Conversion/sampling capacitor [F]; 0 = size from Eq. 6. */
    Capacitance cap = 0.0;
    /** Target precision for noise-driven sizing. */
    int bits = 8;
    /** Signal swing [V]. */
    Voltage vswing = 1.0;
    /** Analog supply [V]. */
    Voltage vdda = 2.5;
    /** Active buffer gm/Id factor. */
    double gmOverId = 15.0;

    bool operator==(const ConverterParams &) const = default;
};

/** Charge-to-voltage converter: integration cap + amplifier (the
 *  conversion the checker names for charge -> voltage edges). */
AComponent makeChargeToVoltage(const ConverterParams &params = {});

/** Current-to-voltage converter (transimpedance stage). */
AComponent makeCurrentToVoltage(const ConverterParams &params = {});

/** Time-to-voltage converter (ramp + sample, for PWM outputs). */
AComponent makeTimeToVoltage(const ConverterParams &params = {});

/** Sample-and-hold buffer: matches producer/consumer throughput
 *  (the "analog buffer" the throughput check requests). */
AComponent makeSampleHold(const ConverterParams &params = {});

/** Dynamic-vision (DVS) event pixel: photodiode + asynchronous delta
 *  modulator + 1-bit event comparator (Yang et al., JSSC'15). Output
 *  is a digital event; map event-generation stages onto it. */
AComponent makeDvsPixel(const ApsParams &params = {});

} // namespace camj

#endif // CAMJ_ANALOG_ACOMPONENT_H

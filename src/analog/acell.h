/**
 * @file
 * A-Cells: the three energy classes of analog circuit cells (Sec. 4.2).
 *
 *   1. Dynamic cells consume charge/discharge energy of their
 *      capacitance nodes (Eq. 5), with thermal-noise-driven capacitor
 *      sizing (Eq. 6).
 *   2. Static-biased cells integrate a bias current over their active
 *      time (Eq. 7), with the bias either directly driving the load
 *      (Eq. 8-9) or set by the gm/Id method (Eq. 10).
 *   3. Non-linear cells (ADCs, comparators) are estimated from the
 *      Walden FoM survey (Eq. 12).
 *
 * Cells receive their timing (per-cell delay and static-bias window)
 * from the enclosing A-Component, which splits the component delay
 * evenly across its critical path (Eq. 11).
 */

#ifndef CAMJ_ANALOG_ACELL_H
#define CAMJ_ANALOG_ACELL_H

#include <memory>
#include <string>
#include <vector>

#include "common/units.h"

namespace camj
{

/** Timing context handed to a cell by its component. */
struct CellTiming
{
    /** This cell's allocated settling delay [s]. */
    Time delay = 0.0;
    /** Window during which the cell is statically biased [s]. */
    Time staticTime = 0.0;
};

/** Base class of all analog cells. */
class ACell
{
  public:
    explicit ACell(std::string name) : name_(std::move(name)) {}
    virtual ~ACell() = default;

    const std::string &name() const { return name_; }

    /**
     * Energy of one access under the given timing [J].
     *
     * @throws ConfigError when the timing is inconsistent with the
     *         cell's requirements (e.g. zero delay for a biased cell).
     */
    virtual Energy energyPerAccess(const CellTiming &timing) const = 0;

  private:
    std::string name_;
};

/** One capacitance node of a dynamic cell: (C, voltage swing). */
struct CapNode
{
    Capacitance capacitance = 0.0;
    Voltage voltageSwing = 0.0;

    bool operator==(const CapNode &) const = default;
};

/**
 * Dynamic A-Cell (Eq. 5): E = sum_i C_i * Vvs_i^2.
 * Examples: capacitive DACs, passive analog memory, charge-sharing
 * cap arrays.
 */
class DynamicCell : public ACell
{
  public:
    /**
     * @param nodes Capacitance nodes; each must have positive C and
     *        non-negative swing.
     * @throws ConfigError on invalid nodes.
     */
    DynamicCell(std::string name, std::vector<CapNode> nodes);

    Energy energyPerAccess(const CellTiming &timing) const override;

    /** Total capacitance across nodes [F]. */
    Capacitance totalCapacitance() const;

    /**
     * Smallest capacitance meeting the Eq. 6 noise constraint
     * 3 * sigma_thermal < LSB / 2 with sigma = sqrt(kT/C):
     *
     *   C  >  kT * (6 * 2^bits / Vvs)^2
     *
     * @param bits Data resolution; must be in [1, 16].
     * @param vswing Full-scale voltage swing; must be positive.
     * @param temperature_k Absolute temperature, default 300 K.
     * @throws ConfigError on invalid arguments.
     */
    static Capacitance capForResolution(int bits, Voltage vswing,
                                        double temperature_k = 300.0);

  private:
    std::vector<CapNode> nodes_;
};

/** Bias-current estimation mode for static-biased cells. */
enum class BiasMode
{
    /** Eq. 8-9: the bias charges the load directly;
     *  E = Cload * Vvs * VDDA, independent of time. */
    DirectDrive,
    /** Eq. 10: gm/Id sizing; Ibias = 2*pi*Cload*GBW / (gm/Id) with
     *  GBW = gain / delay, then E = VDDA * Ibias * t_static (Eq. 7). */
    GmOverId,
};

/** Parameters of a static-biased cell. */
struct StaticBiasParams
{
    /** Load capacitance [F]; must be positive. */
    Capacitance loadCapacitance = 0.0;
    /** Output voltage swing [V]; positive. */
    Voltage voltageSwing = 1.0;
    /** Analog supply [V]; positive. */
    Voltage vdda = 2.5;
    /** Closed-loop gain for GBW = gain/delay (GmOverId mode). */
    double gain = 1.0;
    /** gm/Id inversion-level factor, typically 10-20 (GmOverId). */
    double gmOverId = 15.0;
    /**
     * Fixed bandwidth [Hz] for GmOverId cells whose speed is set by
     * an external requirement rather than the allocated delay — the
     * paper's "OpAmp active over a fixed duration, e.g. when used
     * for an analog frame buffer". 0 derives GBW from the delay.
     */
    Frequency fixedBandwidth = 0.0;
    BiasMode mode = BiasMode::DirectDrive;

    bool operator==(const StaticBiasParams &) const = default;
};

/**
 * Static-biased A-Cell (Eq. 7-10). Examples: pixel source followers
 * (DirectDrive), opamps in active analog memories and integrators
 * (GmOverId).
 */
class StaticBiasedCell : public ACell
{
  public:
    /** @throws ConfigError on non-positive electrical parameters. */
    StaticBiasedCell(std::string name, StaticBiasParams params);

    Energy energyPerAccess(const CellTiming &timing) const override;

    /**
     * Bias current under the given timing [A]. DirectDrive uses
     * Eq. 8 (needs staticTime > 0); GmOverId uses Eq. 10 (needs
     * delay > 0).
     */
    Current biasCurrent(const CellTiming &timing) const;

    const StaticBiasParams &params() const { return params_; }

  private:
    StaticBiasParams params_;
};

/**
 * Non-linear A-Cell (Eq. 12): ADCs and comparators, estimated from
 * the Walden FoM survey at a sampling rate of 1/delay. Expert users
 * may override with a fixed per-conversion energy.
 */
class NonLinearCell : public ACell
{
  public:
    /**
     * @param bits Resolution in [1, 16]; a comparator is 1 bit.
     * @param energy_override If positive, a custom per-conversion
     *        energy that bypasses the FoM survey.
     * @throws ConfigError on invalid resolution.
     */
    NonLinearCell(std::string name, int bits,
                  Energy energy_override = 0.0);

    Energy energyPerAccess(const CellTiming &timing) const override;

    int bits() const { return bits_; }
    Energy energyOverride() const { return energyOverride_; }

  private:
    int bits_;
    Energy energyOverride_;
};

} // namespace camj

#endif // CAMJ_ANALOG_ACELL_H

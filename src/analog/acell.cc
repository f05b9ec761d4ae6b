#include "analog/acell.h"

#include <cmath>
#include <numbers>

#include "analog/adc_fom.h"
#include "common/logging.h"

namespace camj
{

DynamicCell::DynamicCell(std::string name, std::vector<CapNode> nodes)
    : ACell(std::move(name)), nodes_(std::move(nodes))
{
    if (nodes_.empty())
        fatal(Rule::E014,
              "DynamicCell %s: no capacitance nodes", this->name().c_str());
    for (const auto &n : nodes_) {
        if (n.capacitance <= 0.0)
            fatal(Rule::E014, "DynamicCell %s: non-positive capacitance %g F",
                  this->name().c_str(), n.capacitance);
        if (n.voltageSwing < 0.0)
            fatal(Rule::E014, "DynamicCell %s: negative voltage swing %g V",
                  this->name().c_str(), n.voltageSwing);
    }
}

Energy
DynamicCell::energyPerAccess(const CellTiming &) const
{
    Energy e = 0.0;
    for (const auto &n : nodes_)
        e += n.capacitance * n.voltageSwing * n.voltageSwing;
    return e;
}

Capacitance
DynamicCell::totalCapacitance() const
{
    Capacitance c = 0.0;
    for (const auto &n : nodes_)
        c += n.capacitance;
    return c;
}

Capacitance
DynamicCell::capForResolution(int bits, Voltage vswing,
                              double temperature_k)
{
    if (bits < 1 || bits > 16)
        fatal(Rule::E014,
              "capForResolution: resolution %d outside [1, 16]", bits);
    if (vswing <= 0.0)
        fatal(Rule::E014, "capForResolution: non-positive swing %g V", vswing);
    if (temperature_k <= 0.0)
        fatal(Rule::E014, "capForResolution: non-positive temperature %g K",
              temperature_k);

    // Eq. 6: 3 * sqrt(kT/C) < 0.5 * Vvs / 2^bits
    //   =>  C > kT * (6 * 2^bits / Vvs)^2
    double ratio = 6.0 * std::pow(2.0, bits) / vswing;
    return constants::kBoltzmann * temperature_k * ratio * ratio;
}

StaticBiasedCell::StaticBiasedCell(std::string name,
                                   StaticBiasParams params)
    : ACell(std::move(name)), params_(params)
{
    if (params_.loadCapacitance <= 0.0)
        fatal(Rule::E014, "StaticBiasedCell %s: non-positive load capacitance",
              this->name().c_str());
    if (params_.voltageSwing <= 0.0 || params_.vdda <= 0.0)
        fatal(Rule::E014, "StaticBiasedCell %s: non-positive voltage",
              this->name().c_str());
    if (params_.mode == BiasMode::GmOverId &&
        (params_.gmOverId < 1.0 || params_.gmOverId > 30.0))
        fatal(Rule::E014, "StaticBiasedCell %s: gm/Id %g outside [1, 30]",
              this->name().c_str(), params_.gmOverId);
    if (params_.gain <= 0.0)
        fatal(Rule::E014, "StaticBiasedCell %s: non-positive gain",
              this->name().c_str());
}

Current
StaticBiasedCell::biasCurrent(const CellTiming &timing) const
{
    if (params_.mode == BiasMode::DirectDrive) {
        // Eq. 8: charge the load within the static window.
        if (timing.staticTime <= 0.0)
            fatal(Rule::E014,
                  "StaticBiasedCell %s: DirectDrive needs staticTime > 0",
                  name().c_str());
        return params_.loadCapacitance * params_.voltageSwing /
               timing.staticTime;
    }
    // Eq. 10: gm/Id method. GBW comes from the allocated delay, or
    // from an externally-fixed bandwidth (analog frame buffers).
    double gbw;
    if (params_.fixedBandwidth > 0.0) {
        gbw = params_.gain * params_.fixedBandwidth;
    } else {
        if (timing.delay <= 0.0)
            fatal(Rule::E014, "StaticBiasedCell %s: GmOverId needs delay > 0",
                  name().c_str());
        gbw = params_.gain / timing.delay;
    }
    return 2.0 * std::numbers::pi * params_.loadCapacitance * gbw /
           params_.gmOverId;
}

Energy
StaticBiasedCell::energyPerAccess(const CellTiming &timing) const
{
    if (params_.mode == BiasMode::DirectDrive) {
        // Eq. 9: E = Cload * Vvs * VDDA (time cancels out).
        return params_.loadCapacitance * params_.voltageSwing *
               params_.vdda;
    }
    // Eq. 7: E = VDDA * Ibias * t_static.
    if (timing.staticTime < 0.0)
        fatal(Rule::E014, "StaticBiasedCell %s: negative staticTime",
              name().c_str());
    return params_.vdda * biasCurrent(timing) * timing.staticTime;
}

NonLinearCell::NonLinearCell(std::string name, int bits,
                             Energy energy_override)
    : ACell(std::move(name)), bits_(bits),
      energyOverride_(energy_override)
{
    if (bits_ < 1 || bits_ > 16)
        fatal(Rule::E014, "NonLinearCell %s: resolution %d outside [1, 16]",
              this->name().c_str(), bits_);
    if (energyOverride_ < 0.0)
        fatal(Rule::E014, "NonLinearCell %s: negative energy override",
              this->name().c_str());
}

Energy
NonLinearCell::energyPerAccess(const CellTiming &timing) const
{
    if (energyOverride_ > 0.0)
        return energyOverride_;
    if (timing.delay <= 0.0)
        fatal(Rule::E014,
              "NonLinearCell %s: needs delay > 0 for the FoM lookup",
              name().c_str());
    return adcEnergyPerConversion(bits_, 1.0 / timing.delay);
}

} // namespace camj

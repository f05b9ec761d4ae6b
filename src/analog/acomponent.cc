#include "analog/acomponent.h"

#include "common/logging.h"

namespace camj
{

const char *
signalDomainName(SignalDomain d)
{
    switch (d) {
      case SignalDomain::Optical: return "optical";
      case SignalDomain::Charge: return "charge";
      case SignalDomain::Voltage: return "voltage";
      case SignalDomain::Current: return "current";
      case SignalDomain::Time: return "time";
      case SignalDomain::Digital: return "digital";
    }
    return "?";
}

AComponent::AComponent(std::string name, SignalDomain input,
                       SignalDomain output)
    : name_(std::move(name)), input_(input), output_(output)
{
    if (name_.empty())
        fatal(Rule::E014, "AComponent: empty name");
}

void
AComponent::addCell(std::shared_ptr<const ACell> cell, int spatial,
                    int temporal, TimingScope scope)
{
    if (!cell)
        fatal(Rule::E014, "AComponent %s: null cell", name_.c_str());
    if (spatial < 1 || temporal < 1)
        fatal(Rule::E014,
              "AComponent %s: cell %s counts must be >= 1 (got %d, %d)",
              name_.c_str(), cell->name().c_str(), spatial, temporal);
    cells_.push_back({std::move(cell), spatial, temporal, scope});
}

CellTiming
AComponent::timingFor(size_t idx, const ComponentTiming &t) const
{
    const size_t n = cells_.size();
    CellTiming ct;
    // Eq. 11 with even allocation: every cell settles in T/N; cell k
    // stays biased from its start to the end of the op window.
    ct.delay = t.opDelay / static_cast<double>(n);
    switch (cells_[idx].scope) {
      case TimingScope::SelfSlot:
        ct.staticTime = t.opDelay -
                        static_cast<double>(idx) * ct.delay;
        break;
      case TimingScope::ComponentSpan:
        ct.staticTime = t.opDelay;
        break;
      case TimingScope::Frame:
        ct.staticTime = t.frameTime;
        break;
    }
    return ct;
}

bool
AComponent::fomSurveyed() const
{
    for (const CellInstance &c : cells_) {
        const auto *nl = dynamic_cast<const NonLinearCell *>(c.cell.get());
        if (nl != nullptr && nl->energyOverride() <= 0.0)
            return true;
    }
    return false;
}

Energy
AComponent::energyPerOp(const ComponentTiming &timing) const
{
    if (cells_.empty())
        fatal(Rule::E014, "AComponent %s: no cells", name_.c_str());
    Energy e = 0.0;
    for (size_t i = 0; i < cells_.size(); ++i) {
        const CellInstance &ci = cells_[i];
        if (ci.scope == TimingScope::Frame)
            continue; // counted per frame, not per op
        e += ci.cell->energyPerAccess(timingFor(i, timing)) *
             ci.spatialCount * ci.temporalCount;
    }
    return e;
}

Energy
AComponent::energyPerFramePerComponent(const ComponentTiming &timing) const
{
    Energy e = 0.0;
    for (size_t i = 0; i < cells_.size(); ++i) {
        const CellInstance &ci = cells_[i];
        if (ci.scope != TimingScope::Frame)
            continue;
        e += ci.cell->energyPerAccess(timingFor(i, timing)) *
             ci.spatialCount * ci.temporalCount;
    }
    return e;
}

std::vector<std::pair<std::string, Energy>>
AComponent::cellBreakdown(const ComponentTiming &timing) const
{
    std::vector<std::pair<std::string, Energy>> out;
    out.reserve(cells_.size());
    for (size_t i = 0; i < cells_.size(); ++i) {
        const CellInstance &ci = cells_[i];
        Energy e = ci.cell->energyPerAccess(timingFor(i, timing)) *
                   ci.spatialCount * ci.temporalCount;
        out.emplace_back(ci.cell->name(), e);
    }
    return out;
}

// ---------------------------------------------------------------------
// Component library.
// ---------------------------------------------------------------------

namespace
{

std::shared_ptr<const ACell>
photodiodeCell(const ApsParams &p)
{
    return std::make_shared<DynamicCell>(
        "photodiode", std::vector<CapNode>{
            { p.photodiodeCap, p.pixelSwing } });
}

std::shared_ptr<const ACell>
sourceFollowerCell(const ApsParams &p)
{
    StaticBiasParams sb;
    sb.loadCapacitance = p.columnLoadCap;
    sb.voltageSwing = p.pixelSwing;
    sb.vdda = p.vdda;
    sb.mode = BiasMode::DirectDrive;
    return std::make_shared<StaticBiasedCell>("source-follower", sb);
}

Capacitance
resolveCap(Capacitance configured, int bits, Voltage vswing)
{
    if (configured > 0.0)
        return configured;
    return DynamicCell::capForResolution(bits, vswing);
}

std::shared_ptr<const ACell>
opampCell(const SwitchedCapParams &p, Capacitance load)
{
    StaticBiasParams sb;
    sb.loadCapacitance = load;
    sb.voltageSwing = p.vswing;
    sb.vdda = p.vdda;
    sb.gain = p.gain;
    sb.gmOverId = p.gmOverId;
    sb.mode = BiasMode::GmOverId;
    return std::make_shared<StaticBiasedCell>("opamp", sb);
}

} // namespace

AComponent
makeAps4T(const ApsParams &params)
{
    if (params.pixelsPerComponent < 1)
        fatal(Rule::E014, "makeAps4T: pixelsPerComponent must be >= 1");

    AComponent c("4T-APS", SignalDomain::Optical, SignalDomain::Voltage);
    c.addCell(photodiodeCell(params), params.pixelsPerComponent, 1);
    c.addCell(std::make_shared<DynamicCell>(
                  "floating-diffusion",
                  std::vector<CapNode>{ { params.floatingDiffusionCap,
                                          params.pixelSwing } }),
              1, 1);
    c.addCell(sourceFollowerCell(params), 1,
              params.correlatedDoubleSampling ? 2 : 1);
    return c;
}

AComponent
makeAps3T(ApsParams params)
{
    if (params.pixelsPerComponent < 1)
        fatal(Rule::E014, "makeAps3T: pixelsPerComponent must be >= 1");
    params.correlatedDoubleSampling = false; // 3T cannot do true CDS

    AComponent c("3T-APS", SignalDomain::Optical, SignalDomain::Voltage);
    c.addCell(photodiodeCell(params), params.pixelsPerComponent, 1);
    c.addCell(sourceFollowerCell(params), 1, 1);
    return c;
}

AComponent
makeDps(int bits, const ApsParams &params)
{
    AComponent c("DPS", SignalDomain::Optical, SignalDomain::Digital);
    c.addCell(photodiodeCell(params), params.pixelsPerComponent, 1);
    c.addCell(std::make_shared<NonLinearCell>("in-pixel-adc", bits), 1, 1);
    return c;
}

AComponent
makePwmPixel(const ApsParams &params)
{
    AComponent c("PWM-pixel", SignalDomain::Optical, SignalDomain::Time);
    c.addCell(photodiodeCell(params), params.pixelsPerComponent, 1);
    c.addCell(std::make_shared<NonLinearCell>("pwm-comparator", 1), 1, 1);
    return c;
}

AComponent
makeColumnAdc(const AdcParams &params)
{
    AComponent c("ADC", SignalDomain::Voltage, SignalDomain::Digital);
    c.addCell(std::make_shared<NonLinearCell>(
                  "adc", params.bits, params.energyPerConversionOverride),
              1, 1);
    return c;
}

AComponent
makeSwitchedCapMac(const SwitchedCapParams &params)
{
    Capacitance unit = resolveCap(params.unitCap, params.bits,
                                  params.vswing);
    if (params.numCaps < 1)
        fatal(Rule::E014, "makeSwitchedCapMac: numCaps must be >= 1");

    AComponent c("SC-MAC", SignalDomain::Voltage, SignalDomain::Voltage);
    c.addCell(std::make_shared<DynamicCell>(
                  "cap-array", std::vector<CapNode>(
                      static_cast<size_t>(params.numCaps),
                      CapNode{ unit, params.vswing })),
              1, 1);
    if (params.active) {
        c.addCell(opampCell(params,
                            unit * static_cast<double>(params.numCaps)),
                  1, 1);
    }
    return c;
}

AComponent
makeChargeAdder(SwitchedCapParams params)
{
    params.active = false;
    Capacitance unit = resolveCap(params.unitCap, params.bits,
                                  params.vswing);
    AComponent c("charge-adder", SignalDomain::Charge,
                 SignalDomain::Charge);
    c.addCell(std::make_shared<DynamicCell>(
                  "cap-array", std::vector<CapNode>(
                      static_cast<size_t>(params.numCaps),
                      CapNode{ unit, params.vswing })),
              1, 1);
    return c;
}

AComponent
makeScaler(SwitchedCapParams params)
{
    Capacitance unit = resolveCap(params.unitCap, params.bits,
                                  params.vswing);
    AComponent c("scaler", SignalDomain::Voltage, SignalDomain::Voltage);
    c.addCell(std::make_shared<DynamicCell>(
                  "cap-divider", std::vector<CapNode>(
                      static_cast<size_t>(params.numCaps),
                      CapNode{ unit, params.vswing })),
              1, 1);
    if (params.active)
        c.addCell(opampCell(params, unit * params.numCaps), 1, 1);
    return c;
}

AComponent
makeAbsUnit(SwitchedCapParams params)
{
    Capacitance unit = resolveCap(params.unitCap, params.bits,
                                  params.vswing);
    AComponent c("abs", SignalDomain::Voltage, SignalDomain::Voltage);
    c.addCell(std::make_shared<DynamicCell>(
                  "cap-pair", std::vector<CapNode>(
                      2, CapNode{ unit, params.vswing })),
              1, 1);
    c.addCell(opampCell(params, 2.0 * unit), 1, 1);
    return c;
}

AComponent
makeMaxUnit(int num_inputs)
{
    if (num_inputs < 2)
        fatal(Rule::E014,
              "makeMaxUnit: need at least 2 inputs (got %d)", num_inputs);
    AComponent c("max", SignalDomain::Voltage, SignalDomain::Voltage);
    // Winner-take-all tree: n-1 pairwise comparisons.
    c.addCell(std::make_shared<NonLinearCell>("wta-comparator", 1),
              num_inputs - 1, 1);
    return c;
}

AComponent
makeComparator(Energy energy_override)
{
    AComponent c("comparator", SignalDomain::Voltage,
                 SignalDomain::Digital);
    c.addCell(std::make_shared<NonLinearCell>("comparator", 1,
                                              energy_override),
              1, 1);
    return c;
}

AComponent
makeLogUnit(Capacitance load, Voltage vdda)
{
    StaticBiasParams sb;
    sb.loadCapacitance = load;
    sb.voltageSwing = 0.3; // subthreshold log response swing
    sb.vdda = vdda;
    sb.mode = BiasMode::DirectDrive;

    AComponent c("log", SignalDomain::Voltage, SignalDomain::Voltage);
    c.addCell(std::make_shared<StaticBiasedCell>("sub-vt-log", sb), 1, 1);
    return c;
}

AComponent
makePassiveAnalogMemory(const AnalogMemoryParams &params)
{
    Capacitance store = resolveCap(params.storageCap, params.bits,
                                   params.vswing);
    AComponent c("passive-analog-memory", SignalDomain::Voltage,
                 SignalDomain::Voltage);
    // Write: charge the storage cap. Read: charge-share with the
    // consumer sampling cap (same order of energy).
    c.addCell(std::make_shared<DynamicCell>(
                  "store-cap", std::vector<CapNode>{
                      { store, params.vswing } }),
              1, 1 + params.readsPerValue);
    return c;
}

namespace
{

std::shared_ptr<const ACell>
converterOpamp(const ConverterParams &p, Capacitance load)
{
    StaticBiasParams sb;
    sb.loadCapacitance = load;
    sb.voltageSwing = p.vswing;
    sb.vdda = p.vdda;
    sb.gmOverId = p.gmOverId;
    sb.mode = BiasMode::GmOverId;
    return std::make_shared<StaticBiasedCell>("conv-opamp", sb);
}

} // namespace

AComponent
makeChargeToVoltage(const ConverterParams &params)
{
    Capacitance c = resolveCap(params.cap, params.bits, params.vswing);
    AComponent comp("charge-to-voltage", SignalDomain::Charge,
                    SignalDomain::Voltage);
    comp.addCell(std::make_shared<DynamicCell>(
                     "integration-cap",
                     std::vector<CapNode>{ { c, params.vswing } }),
                 1, 1);
    comp.addCell(converterOpamp(params, c), 1, 1);
    return comp;
}

AComponent
makeCurrentToVoltage(const ConverterParams &params)
{
    Capacitance c = resolveCap(params.cap, params.bits, params.vswing);
    AComponent comp("current-to-voltage", SignalDomain::Current,
                    SignalDomain::Voltage);
    comp.addCell(converterOpamp(params, c), 1, 1);
    comp.addCell(std::make_shared<DynamicCell>(
                     "feedback-cap",
                     std::vector<CapNode>{ { c, params.vswing } }),
                 1, 1);
    return comp;
}

AComponent
makeTimeToVoltage(const ConverterParams &params)
{
    Capacitance c = resolveCap(params.cap, params.bits, params.vswing);
    AComponent comp("time-to-voltage", SignalDomain::Time,
                    SignalDomain::Voltage);
    // A ramp charges the sampling cap for the pulse duration.
    StaticBiasParams ramp;
    ramp.loadCapacitance = c;
    ramp.voltageSwing = params.vswing;
    ramp.vdda = params.vdda;
    ramp.mode = BiasMode::DirectDrive;
    comp.addCell(std::make_shared<StaticBiasedCell>("ramp-source",
                                                    ramp),
                 1, 1);
    comp.addCell(std::make_shared<DynamicCell>(
                     "sample-cap",
                     std::vector<CapNode>{ { c, params.vswing } }),
                 1, 1);
    return comp;
}

AComponent
makeSampleHold(const ConverterParams &params)
{
    Capacitance c = resolveCap(params.cap, params.bits, params.vswing);
    AComponent comp("sample-and-hold", SignalDomain::Voltage,
                    SignalDomain::Voltage);
    comp.addCell(std::make_shared<DynamicCell>(
                     "sample-cap",
                     std::vector<CapNode>{ { c, params.vswing } }),
                 1, 1);
    comp.addCell(converterOpamp(params, c), 1, 1,
                 TimingScope::ComponentSpan);
    return comp;
}

AComponent
makeDvsPixel(const ApsParams &params)
{
    AComponent comp("DVS-pixel", SignalDomain::Optical,
                    SignalDomain::Digital);
    comp.addCell(photodiodeCell(params), params.pixelsPerComponent, 1);
    // Asynchronous delta modulator: a switched-cap differencing
    // amplifier plus ON/OFF event comparators.
    comp.addCell(std::make_shared<DynamicCell>(
                     "delta-caps",
                     std::vector<CapNode>(
                         2, CapNode{ 25e-15, params.pixelSwing })),
                 1, 1);
    comp.addCell(std::make_shared<NonLinearCell>("event-comparator",
                                                 1),
                 2, 1); // ON and OFF comparators
    return comp;
}

AComponent
makeActiveAnalogMemory(const AnalogMemoryParams &params)
{
    Capacitance store = resolveCap(params.storageCap, params.bits,
                                   params.vswing);

    AComponent c("active-analog-memory", SignalDomain::Voltage,
                 SignalDomain::Voltage);
    c.addCell(std::make_shared<DynamicCell>(
                  "store-cap", std::vector<CapNode>{
                      { store, params.vswing } }),
              1, 1);

    StaticBiasParams sb;
    sb.loadCapacitance = params.readoutLoadCap;
    sb.voltageSwing = params.vswing;
    sb.vdda = params.vdda;
    sb.mode = BiasMode::DirectDrive;
    c.addCell(std::make_shared<StaticBiasedCell>("readout-sf", sb), 1,
              params.readsPerValue);
    return c;
}

} // namespace camj

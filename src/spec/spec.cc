#include "spec/spec.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/logging.h"

namespace camj::spec
{

using json::Value;

// ------------------------------------------------------------ enum maps

const char *
componentKindName(ComponentKind kind)
{
    switch (kind) {
      case ComponentKind::Aps4T: return "aps4t";
      case ComponentKind::Aps3T: return "aps3t";
      case ComponentKind::Dps: return "dps";
      case ComponentKind::PwmPixel: return "pwm-pixel";
      case ComponentKind::DvsPixel: return "dvs-pixel";
      case ComponentKind::ColumnAdc: return "column-adc";
      case ComponentKind::SwitchedCapMac: return "sc-mac";
      case ComponentKind::ChargeAdder: return "charge-adder";
      case ComponentKind::Scaler: return "scaler";
      case ComponentKind::AbsUnit: return "abs-unit";
      case ComponentKind::MaxUnit: return "max-unit";
      case ComponentKind::Comparator: return "comparator";
      case ComponentKind::LogUnit: return "log-unit";
      case ComponentKind::PassiveAnalogMemory: return "passive-analog-memory";
      case ComponentKind::ActiveAnalogMemory: return "active-analog-memory";
      case ComponentKind::ChargeToVoltage: return "charge-to-voltage";
      case ComponentKind::CurrentToVoltage: return "current-to-voltage";
      case ComponentKind::TimeToVoltage: return "time-to-voltage";
      case ComponentKind::SampleHold: return "sample-hold";
      case ComponentKind::Custom: return "custom";
    }
    return "?";
}

const char *
cellClassName(CellClass cls)
{
    switch (cls) {
      case CellClass::Dynamic: return "dynamic";
      case CellClass::StaticBias: return "static-bias";
      case CellClass::NonLinear: return "non-linear";
    }
    return "?";
}

const char *
timingScopeName(TimingScope scope)
{
    switch (scope) {
      case TimingScope::SelfSlot: return "self-slot";
      case TimingScope::ComponentSpan: return "component-span";
      case TimingScope::Frame: return "frame";
    }
    return "?";
}

const char *
biasModeName(BiasMode mode)
{
    switch (mode) {
      case BiasMode::DirectDrive: return "direct-drive";
      case BiasMode::GmOverId: return "gm-over-id";
    }
    return "?";
}

namespace
{

/** All component kinds, for token lookup and error messages. */
const std::vector<ComponentKind> &
allComponentKinds()
{
    static const std::vector<ComponentKind> kinds = {
        ComponentKind::Aps4T, ComponentKind::Aps3T, ComponentKind::Dps,
        ComponentKind::PwmPixel, ComponentKind::DvsPixel,
        ComponentKind::ColumnAdc, ComponentKind::SwitchedCapMac,
        ComponentKind::ChargeAdder, ComponentKind::Scaler,
        ComponentKind::AbsUnit, ComponentKind::MaxUnit,
        ComponentKind::Comparator, ComponentKind::LogUnit,
        ComponentKind::PassiveAnalogMemory,
        ComponentKind::ActiveAnalogMemory,
        ComponentKind::ChargeToVoltage,
        ComponentKind::CurrentToVoltage,
        ComponentKind::TimeToVoltage, ComponentKind::SampleHold,
        ComponentKind::Custom,
    };
    return kinds;
}

const std::vector<CellClass> &
allCellClasses()
{
    static const std::vector<CellClass> classes = {
        CellClass::Dynamic, CellClass::StaticBias, CellClass::NonLinear,
    };
    return classes;
}

const std::vector<TimingScope> &
allTimingScopes()
{
    static const std::vector<TimingScope> scopes = {
        TimingScope::SelfSlot, TimingScope::ComponentSpan,
        TimingScope::Frame,
    };
    return scopes;
}

const std::vector<BiasMode> &
allBiasModes()
{
    static const std::vector<BiasMode> modes = {
        BiasMode::DirectDrive, BiasMode::GmOverId,
    };
    return modes;
}

const std::vector<SignalDomain> &
allSignalDomains()
{
    static const std::vector<SignalDomain> domains = {
        SignalDomain::Optical, SignalDomain::Charge,
        SignalDomain::Voltage, SignalDomain::Current,
        SignalDomain::Time, SignalDomain::Digital,
    };
    return domains;
}

/** Generic reverse lookup with a known-token error message. */
template <typename Enum, typename NameFn>
Enum
enumFromToken(const std::string &token, const std::vector<Enum> &all,
              NameFn name, const char *what)
{
    for (Enum e : all) {
        if (token == name(e))
            return e;
    }
    std::string known;
    for (Enum e : all)
        known += (known.empty() ? "" : ", ") + std::string(name(e));
    fatal(Rule::E018, "spec: unknown %s '%s' (known: %s)", what, token.c_str(),
          known.c_str());
}

const std::vector<StageOp> &
allStageOps()
{
    static const std::vector<StageOp> ops = {
        StageOp::Input, StageOp::Binning, StageOp::Conv2d,
        StageOp::DepthwiseConv2d, StageOp::FullyConnected,
        StageOp::MaxPool, StageOp::AvgPool, StageOp::ElementwiseSub,
        StageOp::ElementwiseAdd, StageOp::AbsDiff, StageOp::Threshold,
        StageOp::Scale, StageOp::LogResponse, StageOp::Absolute,
        StageOp::CompareSample, StageOp::Identity,
    };
    return ops;
}

const std::vector<Layer> &
allLayers()
{
    static const std::vector<Layer> layers = {
        Layer::Sensor, Layer::Compute, Layer::Dram, Layer::OffChip,
    };
    return layers;
}

const char *
analogRoleName(AnalogRole role)
{
    switch (role) {
      case AnalogRole::Sensing: return "sensing";
      case AnalogRole::Adc: return "adc";
      case AnalogRole::AnalogCompute: return "analog-compute";
      case AnalogRole::AnalogMemory: return "analog-memory";
    }
    return "?";
}

const std::vector<AnalogRole> &
allAnalogRoles()
{
    static const std::vector<AnalogRole> roles = {
        AnalogRole::Sensing, AnalogRole::Adc,
        AnalogRole::AnalogCompute, AnalogRole::AnalogMemory,
    };
    return roles;
}

const std::vector<MemoryKind> &
allMemoryKinds()
{
    static const std::vector<MemoryKind> kinds = {
        MemoryKind::Fifo, MemoryKind::LineBuffer,
        MemoryKind::DoubleBuffer, MemoryKind::FrameBuffer,
    };
    return kinds;
}

// --------------------------------------------------- shape/param helpers

Value
shapeToJson(const Shape &s)
{
    Value arr = Value::makeArray();
    arr.push(Value(s.width));
    arr.push(Value(s.height));
    arr.push(Value(s.channels));
    return arr;
}

Shape
shapeFromJson(const Value &v)
{
    const auto &arr = v.asArray();
    if (arr.empty() || arr.size() > 3)
        fatal(Rule::E018,
              "spec: a shape is a 1-3 element array, got %zu elements",
              arr.size());
    Shape s;
    s.width = arr[0].asInt();
    s.height = arr.size() > 1 ? arr[1].asInt() : 1;
    s.channels = arr.size() > 2 ? arr[2].asInt() : 1;
    return s;
}

Value
apsToJson(const ApsParams &p)
{
    Value o = Value::makeObject();
    o.set("photodiodeCap", Value(p.photodiodeCap));
    o.set("floatingDiffusionCap", Value(p.floatingDiffusionCap));
    o.set("columnLoadCap", Value(p.columnLoadCap));
    o.set("pixelSwing", Value(p.pixelSwing));
    o.set("vdda", Value(p.vdda));
    o.set("correlatedDoubleSampling", Value(p.correlatedDoubleSampling));
    o.set("pixelsPerComponent", Value(p.pixelsPerComponent));
    return o;
}

ApsParams
apsFromJson(const Value &o)
{
    ApsParams d;
    ApsParams p;
    p.photodiodeCap = o.getNumber("photodiodeCap", d.photodiodeCap);
    p.floatingDiffusionCap =
        o.getNumber("floatingDiffusionCap", d.floatingDiffusionCap);
    p.columnLoadCap = o.getNumber("columnLoadCap", d.columnLoadCap);
    p.pixelSwing = o.getNumber("pixelSwing", d.pixelSwing);
    p.vdda = o.getNumber("vdda", d.vdda);
    p.correlatedDoubleSampling =
        o.getBool("correlatedDoubleSampling", d.correlatedDoubleSampling);
    p.pixelsPerComponent = static_cast<int>(
        o.getInt("pixelsPerComponent", d.pixelsPerComponent));
    return p;
}

Value
adcToJson(const AdcParams &p)
{
    Value o = Value::makeObject();
    o.set("bits", Value(p.bits));
    o.set("energyPerConversionOverride",
          Value(p.energyPerConversionOverride));
    return o;
}

AdcParams
adcFromJson(const Value &o)
{
    AdcParams d;
    AdcParams p;
    p.bits = static_cast<int>(o.getInt("bits", d.bits));
    p.energyPerConversionOverride = o.getNumber(
        "energyPerConversionOverride", d.energyPerConversionOverride);
    return p;
}

Value
scToJson(const SwitchedCapParams &p)
{
    Value o = Value::makeObject();
    o.set("unitCap", Value(p.unitCap));
    o.set("numCaps", Value(p.numCaps));
    o.set("vswing", Value(p.vswing));
    o.set("vdda", Value(p.vdda));
    o.set("bits", Value(p.bits));
    o.set("active", Value(p.active));
    o.set("gain", Value(p.gain));
    o.set("gmOverId", Value(p.gmOverId));
    return o;
}

SwitchedCapParams
scFromJson(const Value &o)
{
    SwitchedCapParams d;
    SwitchedCapParams p;
    p.unitCap = o.getNumber("unitCap", d.unitCap);
    p.numCaps = static_cast<int>(o.getInt("numCaps", d.numCaps));
    p.vswing = o.getNumber("vswing", d.vswing);
    p.vdda = o.getNumber("vdda", d.vdda);
    p.bits = static_cast<int>(o.getInt("bits", d.bits));
    p.active = o.getBool("active", d.active);
    p.gain = o.getNumber("gain", d.gain);
    p.gmOverId = o.getNumber("gmOverId", d.gmOverId);
    return p;
}

Value
analogMemToJson(const AnalogMemoryParams &p)
{
    Value o = Value::makeObject();
    o.set("bits", Value(p.bits));
    o.set("vswing", Value(p.vswing));
    o.set("vdda", Value(p.vdda));
    o.set("storageCap", Value(p.storageCap));
    o.set("readoutLoadCap", Value(p.readoutLoadCap));
    o.set("readsPerValue", Value(p.readsPerValue));
    return o;
}

AnalogMemoryParams
analogMemFromJson(const Value &o)
{
    AnalogMemoryParams d;
    AnalogMemoryParams p;
    p.bits = static_cast<int>(o.getInt("bits", d.bits));
    p.vswing = o.getNumber("vswing", d.vswing);
    p.vdda = o.getNumber("vdda", d.vdda);
    p.storageCap = o.getNumber("storageCap", d.storageCap);
    p.readoutLoadCap = o.getNumber("readoutLoadCap", d.readoutLoadCap);
    p.readsPerValue =
        static_cast<int>(o.getInt("readsPerValue", d.readsPerValue));
    return p;
}

Value
convToJson(const ConverterParams &p)
{
    Value o = Value::makeObject();
    o.set("cap", Value(p.cap));
    o.set("bits", Value(p.bits));
    o.set("vswing", Value(p.vswing));
    o.set("vdda", Value(p.vdda));
    o.set("gmOverId", Value(p.gmOverId));
    return o;
}

ConverterParams
convFromJson(const Value &o)
{
    ConverterParams d;
    ConverterParams p;
    p.cap = o.getNumber("cap", d.cap);
    p.bits = static_cast<int>(o.getInt("bits", d.bits));
    p.vswing = o.getNumber("vswing", d.vswing);
    p.vdda = o.getNumber("vdda", d.vdda);
    p.gmOverId = o.getNumber("gmOverId", d.gmOverId);
    return p;
}

} // namespace

ComponentKind
componentKindFromName(const std::string &name)
{
    return enumFromToken(name, allComponentKinds(), componentKindName,
                         "component kind");
}

CellClass
cellClassFromName(const std::string &name)
{
    return enumFromToken(name, allCellClasses(), cellClassName,
                         "cell class");
}

TimingScope
timingScopeFromName(const std::string &name)
{
    return enumFromToken(name, allTimingScopes(), timingScopeName,
                         "timing scope");
}

BiasMode
biasModeFromName(const std::string &name)
{
    return enumFromToken(name, allBiasModes(), biasModeName,
                         "bias mode");
}

SignalDomain
signalDomainFromName(const std::string &name)
{
    return enumFromToken(name, allSignalDomains(), signalDomainName,
                         "signal domain");
}

const char *
memoryModelName(MemoryModel model)
{
    switch (model) {
      case MemoryModel::Explicit: return "explicit";
      case MemoryModel::Sram: return "sram";
      case MemoryModel::Sttram: return "sttram";
      case MemoryModel::Regfile: return "regfile";
    }
    return "?";
}

MemoryModel
memoryModelFromName(const std::string &name)
{
    static const std::vector<MemoryModel> all = {
        MemoryModel::Explicit, MemoryModel::Sram, MemoryModel::Sttram,
        MemoryModel::Regfile,
    };
    return enumFromToken(name, all, memoryModelName, "memory model");
}

// --------------------------------------------------------- instantiation

std::shared_ptr<const ACell>
CellSpec::instantiate() const
{
    switch (cls) {
      case CellClass::Dynamic:
        return std::make_shared<DynamicCell>(name, caps);
      case CellClass::StaticBias:
        return std::make_shared<StaticBiasedCell>(name, bias);
      case CellClass::NonLinear:
        return std::make_shared<NonLinearCell>(name, bits,
                                               energyOverride);
    }
    panic("CellSpec: unknown cell class %d", static_cast<int>(cls));
}

AComponent
ComponentSpec::instantiate() const
{
    switch (kind) {
      case ComponentKind::Aps4T:
        return makeAps4T(aps);
      case ComponentKind::Aps3T:
        return makeAps3T(aps);
      case ComponentKind::Dps:
        return makeDps(adc.bits, aps);
      case ComponentKind::PwmPixel:
        return makePwmPixel(aps);
      case ComponentKind::DvsPixel:
        return makeDvsPixel(aps);
      case ComponentKind::ColumnAdc:
        return makeColumnAdc(adc);
      case ComponentKind::SwitchedCapMac:
        return makeSwitchedCapMac(sc);
      case ComponentKind::ChargeAdder:
        return makeChargeAdder(sc);
      case ComponentKind::Scaler:
        return makeScaler(sc);
      case ComponentKind::AbsUnit:
        return makeAbsUnit(sc);
      case ComponentKind::MaxUnit:
        return makeMaxUnit(maxInputs);
      case ComponentKind::Comparator:
        return makeComparator(comparatorEnergyOverride);
      case ComponentKind::LogUnit:
        return makeLogUnit(logLoadCap, logVdda);
      case ComponentKind::PassiveAnalogMemory:
        return makePassiveAnalogMemory(analogMem);
      case ComponentKind::ActiveAnalogMemory:
        return makeActiveAnalogMemory(analogMem);
      case ComponentKind::ChargeToVoltage:
        return makeChargeToVoltage(conv);
      case ComponentKind::CurrentToVoltage:
        return makeCurrentToVoltage(conv);
      case ComponentKind::TimeToVoltage:
        return makeTimeToVoltage(conv);
      case ComponentKind::SampleHold:
        return makeSampleHold(conv);
      case ComponentKind::Custom: {
        if (custom.name.empty())
            fatal(Rule::E014,
                  "ComponentSpec: custom component field 'custom.name' "
                  "is empty");
        if (custom.cells.empty())
            fatal(Rule::E014,
                  "ComponentSpec: custom component '%s' field "
                  "'custom.cells' is empty (a cell chain needs at "
                  "least one cell)", custom.name.c_str());
        AComponent c(custom.name, custom.input, custom.output);
        for (const CellSpec &cell : custom.cells)
            c.addCell(cell.instantiate(), cell.spatial, cell.temporal,
                      cell.scope);
        return c;
      }
    }
    panic("ComponentSpec: unknown kind %d", static_cast<int>(kind));
}

DigitalMemory
MemorySpec::instantiate() const
{
    switch (model) {
      case MemoryModel::Sram:
        return makeSramMemory(name, layer, kind, capacityWords,
                              wordBits, nodeNm, activeFraction);
      case MemoryModel::Sttram:
        return makeSttramMemory(name, layer, kind, capacityWords,
                                wordBits, nodeNm, activeFraction);
      case MemoryModel::Regfile:
        return makeRegfileMemory(name, layer, kind, capacityWords,
                                 wordBits, nodeNm, activeFraction);
      case MemoryModel::Explicit: {
        DigitalMemoryParams p;
        p.name = name;
        p.layer = layer;
        p.kind = kind;
        p.capacityWords = capacityWords;
        p.wordBits = wordBits;
        p.readEnergyPerWord = readEnergyPerWord;
        p.writeEnergyPerWord = writeEnergyPerWord;
        p.leakagePower = leakagePower;
        p.activeFraction = activeFraction;
        p.readPorts = readPorts;
        p.writePorts = writePorts;
        p.area = area;
        return DigitalMemory(p);
      }
    }
    panic("MemorySpec: unknown model %d", static_cast<int>(model));
}

const std::string &
UnitSpec::name() const
{
    return kind == UnitKind::Pipeline ? pipeline.name : systolic.name;
}

// ---------------------------------------------------------- diagnostics

std::string
joinNames(const std::vector<std::string> &names)
{
    if (names.empty())
        return "<none>";
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : ", ") + n;
    return out;
}

// -------------------------------------------------------- serialization

namespace
{

Value
cellToJson(const CellSpec &cell)
{
    Value o = Value::makeObject();
    o.set("class", Value(cellClassName(cell.cls)));
    o.set("name", Value(cell.name));
    switch (cell.cls) {
      case CellClass::Dynamic: {
        Value caps = Value::makeArray();
        for (const CapNode &n : cell.caps) {
            Value cap = Value::makeObject();
            cap.set("capacitance", Value(n.capacitance));
            cap.set("swing", Value(n.voltageSwing));
            caps.push(std::move(cap));
        }
        o.set("caps", std::move(caps));
        break;
      }
      case CellClass::StaticBias: {
        Value b = Value::makeObject();
        b.set("loadCapacitance", Value(cell.bias.loadCapacitance));
        b.set("voltageSwing", Value(cell.bias.voltageSwing));
        b.set("vdda", Value(cell.bias.vdda));
        b.set("gain", Value(cell.bias.gain));
        b.set("gmOverId", Value(cell.bias.gmOverId));
        b.set("fixedBandwidth", Value(cell.bias.fixedBandwidth));
        b.set("mode", Value(biasModeName(cell.bias.mode)));
        o.set("bias", std::move(b));
        break;
      }
      case CellClass::NonLinear:
        o.set("bits", Value(cell.bits));
        o.set("energyOverride", Value(cell.energyOverride));
        break;
    }
    o.set("spatial", Value(cell.spatial));
    o.set("temporal", Value(cell.temporal));
    o.set("scope", Value(timingScopeName(cell.scope)));
    return o;
}

CellSpec
cellFromJson(const Value &o)
{
    CellSpec cell;
    cell.cls = cellClassFromName(o.at("class").asString());
    cell.name = o.at("name").asString();
    if (const Value *v = o.find("caps")) {
        for (const Value &cap : v->asArray()) {
            // Both keys are required: a defaulted 0 F / 0 V node
            // would silently zero the cell's energy.
            CapNode n;
            n.capacitance = cap.at("capacitance").asNumber();
            n.voltageSwing = cap.at("swing").asNumber();
            cell.caps.push_back(n);
        }
    }
    if (const Value *v = o.find("bias")) {
        StaticBiasParams d;
        cell.bias.loadCapacitance =
            v->getNumber("loadCapacitance", d.loadCapacitance);
        cell.bias.voltageSwing =
            v->getNumber("voltageSwing", d.voltageSwing);
        cell.bias.vdda = v->getNumber("vdda", d.vdda);
        cell.bias.gain = v->getNumber("gain", d.gain);
        cell.bias.gmOverId = v->getNumber("gmOverId", d.gmOverId);
        cell.bias.fixedBandwidth =
            v->getNumber("fixedBandwidth", d.fixedBandwidth);
        cell.bias.mode = biasModeFromName(
            v->getString("mode", biasModeName(d.mode)));
    }
    cell.bits = static_cast<int>(o.getInt("bits", cell.bits));
    cell.energyOverride =
        o.getNumber("energyOverride", cell.energyOverride);
    cell.spatial = static_cast<int>(o.getInt("spatial", 1));
    cell.temporal = static_cast<int>(o.getInt("temporal", 1));
    cell.scope = timingScopeFromName(
        o.getString("scope", timingScopeName(TimingScope::SelfSlot)));
    return cell;
}

Value
customToJson(const CustomComponentSpec &c)
{
    Value o = Value::makeObject();
    o.set("name", Value(c.name));
    o.set("inputDomain", Value(signalDomainName(c.input)));
    o.set("outputDomain", Value(signalDomainName(c.output)));
    Value cells = Value::makeArray();
    for (const CellSpec &cell : c.cells)
        cells.push(cellToJson(cell));
    o.set("cells", std::move(cells));
    return o;
}

CustomComponentSpec
customFromJson(const Value &o)
{
    CustomComponentSpec c;
    c.name = o.at("name").asString();
    c.input = signalDomainFromName(o.at("inputDomain").asString());
    c.output = signalDomainFromName(o.at("outputDomain").asString());
    if (const Value *v = o.find("cells")) {
        for (const Value &cell : v->asArray())
            c.cells.push_back(cellFromJson(cell));
    }
    return c;
}

Value
componentToJson(const ComponentSpec &c)
{
    Value o = Value::makeObject();
    o.set("kind", Value(componentKindName(c.kind)));
    switch (c.kind) {
      case ComponentKind::Aps4T:
      case ComponentKind::Aps3T:
      case ComponentKind::PwmPixel:
      case ComponentKind::DvsPixel:
        o.set("aps", apsToJson(c.aps));
        break;
      case ComponentKind::Dps:
        o.set("aps", apsToJson(c.aps));
        o.set("adc", adcToJson(c.adc));
        break;
      case ComponentKind::ColumnAdc:
        o.set("adc", adcToJson(c.adc));
        break;
      case ComponentKind::SwitchedCapMac:
      case ComponentKind::ChargeAdder:
      case ComponentKind::Scaler:
      case ComponentKind::AbsUnit:
        o.set("switchedCap", scToJson(c.sc));
        break;
      case ComponentKind::MaxUnit:
        o.set("maxInputs", Value(c.maxInputs));
        break;
      case ComponentKind::Comparator:
        o.set("energyOverride", Value(c.comparatorEnergyOverride));
        break;
      case ComponentKind::LogUnit:
        o.set("loadCap", Value(c.logLoadCap));
        o.set("vdda", Value(c.logVdda));
        break;
      case ComponentKind::PassiveAnalogMemory:
      case ComponentKind::ActiveAnalogMemory:
        o.set("analogMemory", analogMemToJson(c.analogMem));
        break;
      case ComponentKind::ChargeToVoltage:
      case ComponentKind::CurrentToVoltage:
      case ComponentKind::TimeToVoltage:
      case ComponentKind::SampleHold:
        o.set("converter", convToJson(c.conv));
        break;
      case ComponentKind::Custom:
        o.set("custom", customToJson(c.custom));
        break;
    }
    return o;
}

ComponentSpec
componentFromJson(const Value &o)
{
    ComponentSpec c;
    c.kind = componentKindFromName(o.at("kind").asString());
    if (const Value *v = o.find("custom"))
        c.custom = customFromJson(*v);
    if (const Value *v = o.find("aps"))
        c.aps = apsFromJson(*v);
    if (const Value *v = o.find("adc"))
        c.adc = adcFromJson(*v);
    if (const Value *v = o.find("switchedCap"))
        c.sc = scFromJson(*v);
    if (const Value *v = o.find("analogMemory"))
        c.analogMem = analogMemFromJson(*v);
    if (const Value *v = o.find("converter"))
        c.conv = convFromJson(*v);
    c.maxInputs = static_cast<int>(o.getInt("maxInputs", c.maxInputs));
    c.comparatorEnergyOverride =
        o.getNumber("energyOverride", c.comparatorEnergyOverride);
    c.logLoadCap = o.getNumber("loadCap", c.logLoadCap);
    c.logVdda = o.getNumber("vdda", c.logVdda);
    return c;
}

Value
stageToJson(const StageSpec &s)
{
    Value o = Value::makeObject();
    o.set("name", Value(s.params.name));
    o.set("op", Value(stageOpName(s.params.op)));
    if (s.params.op != StageOp::Input)
        o.set("inputSize", shapeToJson(s.params.inputSize));
    o.set("outputSize", shapeToJson(s.params.outputSize));
    o.set("kernel", shapeToJson(s.params.kernel));
    o.set("stride", shapeToJson(s.params.stride));
    o.set("bitDepth", Value(s.params.bitDepth));
    if (s.params.opsPerOutputOverride != 0)
        o.set("opsPerOutput", Value(s.params.opsPerOutputOverride));
    Value ins = Value::makeArray();
    for (const std::string &in : s.inputs)
        ins.push(Value(in));
    o.set("inputs", std::move(ins));
    return o;
}

StageSpec
stageFromJson(const Value &o)
{
    StageSpec s;
    s.params.name = o.at("name").asString();
    s.params.op = enumFromToken(o.at("op").asString(), allStageOps(),
                                stageOpName, "stage op");
    if (const Value *v = o.find("inputSize"))
        s.params.inputSize = shapeFromJson(*v);
    s.params.outputSize = shapeFromJson(o.at("outputSize"));
    if (const Value *v = o.find("kernel"))
        s.params.kernel = shapeFromJson(*v);
    if (const Value *v = o.find("stride"))
        s.params.stride = shapeFromJson(*v);
    s.params.bitDepth = static_cast<int>(o.getInt("bitDepth", 8));
    s.params.opsPerOutputOverride = o.getInt("opsPerOutput", 0);
    if (const Value *v = o.find("inputs")) {
        for (const Value &in : v->asArray())
            s.inputs.push_back(in.asString());
    }
    return s;
}

Value
analogArrayToJson(const AnalogArraySpec &a)
{
    Value o = Value::makeObject();
    o.set("name", Value(a.name));
    o.set("layer", Value(layerName(a.layer)));
    o.set("role", Value(analogRoleName(a.role)));
    o.set("numComponents", shapeToJson(a.numComponents));
    o.set("inputShape", shapeToJson(a.inputShape));
    o.set("outputShape", shapeToJson(a.outputShape));
    o.set("componentArea", Value(a.componentArea));
    o.set("component", componentToJson(a.component));
    return o;
}

AnalogArraySpec
analogArrayFromJson(const Value &o)
{
    AnalogArraySpec a;
    a.name = o.at("name").asString();
    a.layer = enumFromToken(o.getString("layer", "sensor"),
                            allLayers(), layerName, "layer");
    a.role = enumFromToken(o.at("role").asString(), allAnalogRoles(),
                           analogRoleName, "analog role");
    a.numComponents = shapeFromJson(o.at("numComponents"));
    if (const Value *v = o.find("inputShape"))
        a.inputShape = shapeFromJson(*v);
    if (const Value *v = o.find("outputShape"))
        a.outputShape = shapeFromJson(*v);
    a.componentArea = o.getNumber("componentArea", 0.0);
    a.component = componentFromJson(o.at("component"));
    return a;
}

Value
memoryToJson(const MemorySpec &m)
{
    Value o = Value::makeObject();
    o.set("name", Value(m.name));
    o.set("layer", Value(layerName(m.layer)));
    o.set("kind", Value(memoryKindName(m.kind)));
    o.set("model", Value(memoryModelName(m.model)));
    o.set("capacityWords", Value(m.capacityWords));
    o.set("wordBits", Value(m.wordBits));
    o.set("activeFraction", Value(m.activeFraction));
    if (m.model == MemoryModel::Explicit) {
        o.set("readEnergyPerWord", Value(m.readEnergyPerWord));
        o.set("writeEnergyPerWord", Value(m.writeEnergyPerWord));
        o.set("leakagePower", Value(m.leakagePower));
        o.set("readPorts", Value(m.readPorts));
        o.set("writePorts", Value(m.writePorts));
        o.set("area", Value(m.area));
    } else {
        o.set("nodeNm", Value(m.nodeNm));
    }
    return o;
}

MemorySpec
memoryFromJson(const Value &o)
{
    MemorySpec m;
    m.name = o.at("name").asString();
    m.layer = enumFromToken(o.getString("layer", "sensor"),
                            allLayers(), layerName, "layer");
    m.kind = enumFromToken(o.getString("kind", "fifo"),
                           allMemoryKinds(), memoryKindName,
                           "memory kind");
    m.model = memoryModelFromName(o.getString("model", "sram"));
    m.capacityWords = o.at("capacityWords").asInt();
    m.wordBits = static_cast<int>(o.getInt("wordBits", 8));
    m.nodeNm = static_cast<int>(o.getInt("nodeNm", 65));
    m.activeFraction = o.getNumber("activeFraction", 1.0);
    m.readEnergyPerWord = o.getNumber("readEnergyPerWord", 0.0);
    m.writeEnergyPerWord = o.getNumber("writeEnergyPerWord", 0.0);
    m.leakagePower = o.getNumber("leakagePower", 0.0);
    m.readPorts = static_cast<int>(o.getInt("readPorts", 1));
    m.writePorts = static_cast<int>(o.getInt("writePorts", 1));
    m.area = o.getNumber("area", 0.0);
    return m;
}

Value
unitToJson(const UnitSpec &u)
{
    Value o = Value::makeObject();
    if (u.kind == UnitKind::Pipeline) {
        const ComputeUnitParams &p = u.pipeline;
        o.set("kind", Value("pipeline"));
        o.set("name", Value(p.name));
        o.set("layer", Value(layerName(p.layer)));
        o.set("inputPixelsPerCycle", shapeToJson(p.inputPixelsPerCycle));
        o.set("outputPixelsPerCycle",
              shapeToJson(p.outputPixelsPerCycle));
        o.set("energyPerCycle", Value(p.energyPerCycle));
        o.set("numStages", Value(p.numStages));
        o.set("clock", Value(p.clock));
        o.set("opsPerCycle", Value(p.opsPerCycle));
        o.set("area", Value(p.area));
    } else {
        const SystolicArrayParams &p = u.systolic;
        o.set("kind", Value("systolic"));
        o.set("name", Value(p.name));
        o.set("layer", Value(layerName(p.layer)));
        o.set("rows", Value(p.rows));
        o.set("cols", Value(p.cols));
        o.set("energyPerMac", Value(p.energyPerMac));
        o.set("clock", Value(p.clock));
        o.set("peArea", Value(p.peArea));
    }
    Value ins = Value::makeArray();
    for (const std::string &m : u.inputMemories)
        ins.push(Value(m));
    o.set("inputMemories", std::move(ins));
    Value outs = Value::makeArray();
    for (const std::string &m : u.outputMemories)
        outs.push(Value(m));
    o.set("outputMemories", std::move(outs));
    return o;
}

UnitSpec
unitFromJson(const Value &o)
{
    UnitSpec u;
    const std::string kind = o.at("kind").asString();
    if (kind == "pipeline") {
        u.kind = UnitKind::Pipeline;
        ComputeUnitParams p;
        p.name = o.at("name").asString();
        p.layer = enumFromToken(o.getString("layer", "sensor"),
                                allLayers(), layerName, "layer");
        if (const Value *v = o.find("inputPixelsPerCycle"))
            p.inputPixelsPerCycle = shapeFromJson(*v);
        if (const Value *v = o.find("outputPixelsPerCycle"))
            p.outputPixelsPerCycle = shapeFromJson(*v);
        p.energyPerCycle = o.getNumber("energyPerCycle", 0.0);
        p.numStages = static_cast<int>(o.getInt("numStages", 1));
        p.clock = o.getNumber("clock", 50e6);
        p.opsPerCycle = o.getInt("opsPerCycle", 0);
        p.area = o.getNumber("area", 0.0);
        u.pipeline = std::move(p);
    } else if (kind == "systolic") {
        u.kind = UnitKind::Systolic;
        SystolicArrayParams p;
        p.name = o.at("name").asString();
        p.layer = enumFromToken(o.getString("layer", "sensor"),
                                allLayers(), layerName, "layer");
        p.rows = static_cast<int>(o.getInt("rows", 16));
        p.cols = static_cast<int>(o.getInt("cols", 16));
        p.energyPerMac = o.getNumber("energyPerMac", 0.0);
        p.clock = o.getNumber("clock", 100e6);
        p.peArea = o.getNumber("peArea", 0.0);
        u.systolic = std::move(p);
    } else {
        fatal(Rule::E018,
              "spec: unknown unit kind '%s' (known: pipeline, "
              "systolic)", kind.c_str());
    }
    if (const Value *v = o.find("inputMemories")) {
        for (const Value &m : v->asArray())
            u.inputMemories.push_back(m.asString());
    }
    if (const Value *v = o.find("outputMemories")) {
        for (const Value &m : v->asArray())
            u.outputMemories.push_back(m.asString());
    }
    return u;
}

} // namespace

json::Value
toJsonValue(const DesignSpec &spec)
{
    Value o = Value::makeObject();
    o.reserve(13);
    o.set("camjSpecVersion", Value(1));
    o.set("name", Value(spec.name));
    o.set("fps", Value(spec.fps));
    o.set("digitalClock", Value(spec.digitalClock));

    Value stages = Value::makeArray();
    stages.reserve(spec.stages.size());
    for (const StageSpec &s : spec.stages)
        stages.push(stageToJson(s));
    o.set("stages", std::move(stages));

    Value analog = Value::makeArray();
    analog.reserve(spec.analogArrays.size());
    for (const AnalogArraySpec &a : spec.analogArrays)
        analog.push(analogArrayToJson(a));
    o.set("analogArrays", std::move(analog));

    Value mems = Value::makeArray();
    mems.reserve(spec.memories.size());
    for (const MemorySpec &m : spec.memories)
        mems.push(memoryToJson(m));
    o.set("memories", std::move(mems));

    Value units = Value::makeArray();
    units.reserve(spec.units.size());
    for (const UnitSpec &u : spec.units)
        units.push(unitToJson(u));
    o.set("units", std::move(units));

    if (!spec.adcOutputMemory.empty())
        o.set("adcOutputMemory", Value(spec.adcOutputMemory));
    if (spec.mipi.present) {
        Value m = Value::makeObject();
        m.set("energyPerByte", Value(spec.mipi.energyPerByte));
        o.set("mipi", std::move(m));
    }
    if (spec.tsv.present) {
        Value t = Value::makeObject();
        t.set("energyPerByte", Value(spec.tsv.energyPerByte));
        o.set("tsv", std::move(t));
    }
    if (spec.pipelineOutputBytes >= 0)
        o.set("pipelineOutputBytes", Value(spec.pipelineOutputBytes));

    Value mapping = Value::makeArray();
    mapping.reserve(spec.mapping.size());
    for (const auto &[stage, hw] : spec.mapping) {
        Value pair = Value::makeObject();
        pair.set("stage", Value(stage));
        pair.set("hw", Value(hw));
        mapping.push(std::move(pair));
    }
    o.set("mapping", std::move(mapping));

    return o;
}

std::string
toJson(const DesignSpec &spec)
{
    return toJsonValue(spec).dump(2) + "\n";
}

namespace
{

/** Lower array member @p key of @p o element by element into @p out
 *  (empty when the member is absent). */
template <typename T>
void
lowerArray(const Value &o, std::string_view key, std::vector<T> &out,
           T (*element)(const Value &))
{
    out.clear();
    if (const Value *v = o.find(key)) {
        for (const Value &e : v->asArray())
            out.push_back(element(e));
    }
}

/** A link member: present exactly when the document carries it. */
CommSpec
commFromJson(const Value *v)
{
    CommSpec c;
    if (v != nullptr) {
        c.present = true;
        c.energyPerByte = v->getNumber("energyPerByte", 0.0);
    }
    return c;
}

constexpr SpecMember kSpecMembers[] = {
    {"camjSpecVersion",
     [](const Value &o, DesignSpec &) {
         const int64_t version = o.getInt("camjSpecVersion", 1);
         if (version != 1)
             fatal(Rule::E018,
                   "spec: unsupported camjSpecVersion %lld (this build "
                   "reads version 1)", static_cast<long long>(version));
     }},
    {"name",
     [](const Value &o, DesignSpec &s) {
         s.name = o.at("name").asString();
     }},
    {"fps",
     [](const Value &o, DesignSpec &s) {
         s.fps = o.getNumber("fps", 30.0);
     }},
    {"digitalClock",
     [](const Value &o, DesignSpec &s) {
         s.digitalClock = o.getNumber("digitalClock", 50e6);
     }},
    {"stages",
     [](const Value &o, DesignSpec &s) {
         lowerArray(o, "stages", s.stages, stageFromJson);
     }},
    {"analogArrays",
     [](const Value &o, DesignSpec &s) {
         lowerArray(o, "analogArrays", s.analogArrays,
                    analogArrayFromJson);
     }},
    {"memories",
     [](const Value &o, DesignSpec &s) {
         lowerArray(o, "memories", s.memories, memoryFromJson);
     }},
    {"units",
     [](const Value &o, DesignSpec &s) {
         lowerArray(o, "units", s.units, unitFromJson);
     }},
    {"adcOutputMemory",
     [](const Value &o, DesignSpec &s) {
         s.adcOutputMemory = o.getString("adcOutputMemory", "");
     }},
    {"mipi",
     [](const Value &o, DesignSpec &s) {
         s.mipi = commFromJson(o.find("mipi"));
     }},
    {"tsv",
     [](const Value &o, DesignSpec &s) {
         s.tsv = commFromJson(o.find("tsv"));
     }},
    {"pipelineOutputBytes",
     [](const Value &o, DesignSpec &s) {
         s.pipelineOutputBytes = o.getInt("pipelineOutputBytes", -1);
     }},
    {"mapping",
     [](const Value &o, DesignSpec &s) {
         s.mapping.clear();
         if (const Value *v = o.find("mapping")) {
             for (const Value &pair : v->asArray()) {
                 s.mapping.emplace_back(pair.at("stage").asString(),
                                        pair.at("hw").asString());
             }
         }
     }},
};

} // namespace

std::span<const SpecMember>
specMembers()
{
    return kSpecMembers;
}

DesignSpec
fromJsonValue(const Value &o)
{
    DesignSpec spec;
    for (const SpecMember &member : kSpecMembers)
        member.lower(o, spec);
    return spec;
}

// ------------------------------------------------- validate, materialize

namespace
{

/** The bit of the member-table entry named @p key; a key the table
 *  lacks is not a constant expression, so a misspelt read does not
 *  compile. */
constexpr SpecMemberMask
memberBit(std::string_view key)
{
    for (size_t i = 0; i < std::size(kSpecMembers); ++i) {
        if (key == kSpecMembers[i].key)
            return SpecMemberMask{1} << i;
    }
    throw ConfigError("spec: no member table entry for this key");
}

constexpr SpecMemberMask kName = memberBit("name");
constexpr SpecMemberMask kFps = memberBit("fps");
constexpr SpecMemberMask kClock = memberBit("digitalClock");
constexpr SpecMemberMask kStages = memberBit("stages");
constexpr SpecMemberMask kAnalog = memberBit("analogArrays");
constexpr SpecMemberMask kMemories = memberBit("memories");
constexpr SpecMemberMask kUnits = memberBit("units");
constexpr SpecMemberMask kAdcMemory = memberBit("adcOutputMemory");
constexpr SpecMemberMask kMipi = memberBit("mipi");
constexpr SpecMemberMask kTsv = memberBit("tsv");
constexpr SpecMemberMask kOutputBytes = memberBit("pipelineOutputBytes");
constexpr SpecMemberMask kMapping = memberBit("mapping");
constexpr SpecMemberMask kEveryMember =
    (SpecMemberMask{1} << std::size(kSpecMembers)) - 1;

// The results a later routine reads, one bit each above the members.
constexpr SpecMemberMask kProducers = kEveryMember + 1;
constexpr SpecMemberMask kWiring = kProducers << 1;
constexpr SpecMemberMask kUnitParts = kProducers << 2;
static_assert(std::size(kSpecMembers) + 3 <= 32);

/** The hardware names of a spec as one sequence: analog arrays, then
 *  memories, then units (the order validation reports them in). */
struct Hardware
{
    const std::vector<AnalogArraySpec> &analog;
    const std::vector<MemorySpec> &memories;
    const std::vector<UnitSpec> &units;

    size_t size() const
    {
        return analog.size() + memories.size() + units.size();
    }

    const std::string &name(size_t i) const
    {
        if (i < analog.size())
            return analog[i].name;
        i -= analog.size();
        if (i < memories.size())
            return memories[i].name;
        return units[i - memories.size()].name();
    }

    const char *kind(size_t i) const
    {
        if (i < analog.size())
            return "analog array";
        return i < analog.size() + memories.size() ? "memory"
                                                   : "digital unit";
    }

    /** Index of the first name equal to @p hw, or size(). */
    size_t find(const std::string &hw) const
    {
        for (size_t i = 0; i < size(); ++i) {
            if (name(i) == hw)
                return i;
        }
        return size();
    }
};

/** Every name in @p names sorted and joined, as the "registered ..."
 *  lists spell them. */
std::string
sortedNames(std::vector<std::string> names)
{
    std::sort(names.begin(), names.end());
    return joinNames(names);
}

/** Index of the stage named @p name; -1 for none. */
int
stageIndex(const std::vector<StageSpec> &stages, const std::string &name)
{
    for (size_t i = 0; i < stages.size(); ++i) {
        if (stages[i].params.name == name)
            return static_cast<int>(i);
    }
    return -1;
}

/** Index of the memory named @p name; -1 for none. */
int
memoryIndex(const std::vector<MemorySpec> &memories,
            const std::string &name)
{
    for (size_t i = 0; i < memories.size(); ++i) {
        if (memories[i].name == name)
            return static_cast<int>(i);
    }
    return -1;
}

// The checks. @p design only labels a message.

void
checkName(const std::string &name)
{
    if (name.empty())
        fatal(Rule::E001, "DesignSpec: empty design name");
}

void
checkFps(const std::string &design, double fps)
{
    if (fps <= 0.0)
        fatal(Rule::E001, "DesignSpec %s: fps must be positive",
              design.c_str());
}

void
checkClock(const std::string &design, Frequency clock)
{
    if (clock <= 0.0)
        fatal(Rule::E001, "DesignSpec %s: digital clock must be positive",
              design.c_str());
}

/** Stage names are non-empty and unique. */
void
checkStageNames(const std::string &design,
                const std::vector<StageSpec> &stages)
{
    for (size_t i = 0; i < stages.size(); ++i) {
        const std::string &stage = stages[i].params.name;
        if (stage.empty())
            fatal(Rule::E002, "DesignSpec %s: a stage has an empty name",
                  design.c_str());
        if (stageIndex(stages, stage) != static_cast<int>(i))
            fatal(Rule::E002, "DesignSpec %s: duplicate stage '%s'",
                  design.c_str(), stage.c_str());
    }
}

/** Each stage lists its arity of producers, and each resolves. */
void
resolveProducers(const std::string &design,
                 const std::vector<StageSpec> &stages,
                 std::vector<std::vector<StageId>> &producers)
{
    producers.resize(stages.size());
    for (size_t i = 0; i < stages.size(); ++i) {
        const StageSpec &s = stages[i];
        const int arity = stageOpArity(s.params.op);
        if (static_cast<int>(s.inputs.size()) != arity)
            fatal(Rule::E004,
                  "DesignSpec %s: stage '%s' (%s) needs %d input(s), "
                  "spec lists %zu", design.c_str(),
                  s.params.name.c_str(), stageOpName(s.params.op),
                  arity, s.inputs.size());
        producers[i].clear();
        for (const std::string &in : s.inputs) {
            const int producer = stageIndex(stages, in);
            if (producer < 0)
                fatal(Rule::E003,
                      "DesignSpec %s: stage '%s' reads unknown stage "
                      "'%s'", design.c_str(), s.params.name.c_str(),
                      in.c_str());
            producers[i].push_back(producer);
        }
    }
}

/** Hardware names are non-empty and unique across every class. */
void
checkHardwareNames(const std::string &design, const Hardware &hw)
{
    for (size_t i = 0; i < hw.size(); ++i) {
        const std::string &name = hw.name(i);
        if (name.empty())
            fatal(Rule::E002, "DesignSpec %s: a %s has an empty name",
                  design.c_str(), hw.kind(i));
        if (hw.find(name) != i)
            fatal(Rule::E002,
                  "DesignSpec %s: duplicate hardware name '%s'",
                  design.c_str(), name.c_str());
    }
}

/** Unit ports and the ADC output resolve to memories. Errors name the
 *  exact spec field holding the dangling reference, so a bad JSON
 *  document can be fixed without reading the materializer. */
void
resolveWiring(const std::string &design,
              const std::vector<MemorySpec> &memories,
              const std::vector<UnitSpec> &units,
              const std::string &adc_memory, ResolvedNames &names)
{
    auto need = [&](const std::string &mem, auto &&field) {
        const int index = memoryIndex(memories, mem);
        if (index < 0) {
            std::vector<std::string> registered;
            for (const MemorySpec &m : memories)
                registered.push_back(m.name);
            fatal(Rule::E003,
                  "DesignSpec %s: field '%s' references unknown memory "
                  "'%s' (registered memories: %s)", design.c_str(),
                  field().c_str(), mem.c_str(),
                  sortedNames(std::move(registered)).c_str());
        }
        return index;
    };
    auto port = [](const UnitSpec &u, const char *side, size_t i) {
        return [&u, side, i] {
            return "units['" + u.name() + "']." + side + "[" +
                   std::to_string(i) + "]";
        };
    };
    names.unitInputs.resize(units.size());
    names.unitOutputs.resize(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
        const UnitSpec &unit = units[u];
        names.unitInputs[u].clear();
        for (size_t i = 0; i < unit.inputMemories.size(); ++i)
            names.unitInputs[u].push_back(
                need(unit.inputMemories[i], port(unit, "inputMemories", i)));
        names.unitOutputs[u].clear();
        for (size_t i = 0; i < unit.outputMemories.size(); ++i)
            names.unitOutputs[u].push_back(need(
                unit.outputMemories[i], port(unit, "outputMemories", i)));
    }
    names.adcMemory = -1;
    if (!adc_memory.empty())
        names.adcMemory = need(adc_memory, [] {
            return std::string("adcOutputMemory");
        });
}

/** Mapping targets exist; no stage is mapped twice. */
void
checkMapping(const std::string &design,
             const std::vector<std::pair<std::string, std::string>> &mapping,
             const std::vector<StageSpec> &stages, const Hardware &hw)
{
    for (size_t i = 0; i < mapping.size(); ++i) {
        const auto &[stage, target] = mapping[i];
        if (stageIndex(stages, stage) < 0)
            fatal(Rule::E003,
                  "DesignSpec %s: field 'mapping' references unknown "
                  "stage '%s'", design.c_str(), stage.c_str());
        if (hw.find(target) == hw.size()) {
            std::vector<std::string> registered;
            for (size_t h = 0; h < hw.size(); ++h)
                registered.push_back(hw.name(h));
            fatal(Rule::E003,
                  "DesignSpec %s: field 'mapping[\"%s\"]' targets "
                  "unknown hardware '%s' (registered hardware: %s)",
                  design.c_str(), stage.c_str(), target.c_str(),
                  sortedNames(std::move(registered)).c_str());
        }
        for (size_t j = 0; j < i; ++j) {
            if (mapping[j].first == stage)
                fatal(Rule::E008,
                      "DesignSpec %s: field 'mapping' lists stage '%s' "
                      "twice", design.c_str(), stage.c_str());
        }
    }
}

/** One check of validate(): the members and results it reads, the
 *  result it writes (0 for none), and the call, which passes the
 *  routine exactly those reads. */
struct Check
{
    SpecMemberMask reads;
    SpecMemberMask writes;
    void (*run)(const DesignSpec &spec, ResolvedNames &names);
};

/** validate()'s checks in order; the design name only labels. */
constexpr Check kChecks[] = {
    {kName, 0,
     [](const DesignSpec &s, ResolvedNames &) { checkName(s.name); }},
    {kFps, 0,
     [](const DesignSpec &s, ResolvedNames &) { checkFps(s.name, s.fps); }},
    {kClock, 0,
     [](const DesignSpec &s, ResolvedNames &) {
         checkClock(s.name, s.digitalClock);
     }},
    {kStages, 0,
     [](const DesignSpec &s, ResolvedNames &) {
         checkStageNames(s.name, s.stages);
     }},
    {kStages, kProducers,
     [](const DesignSpec &s, ResolvedNames &n) {
         resolveProducers(s.name, s.stages, n.producers);
     }},
    {kAnalog | kMemories | kUnits, 0,
     [](const DesignSpec &s, ResolvedNames &) {
         checkHardwareNames(s.name,
                            {s.analogArrays, s.memories, s.units});
     }},
    {kMemories | kUnits | kAdcMemory, kWiring,
     [](const DesignSpec &s, ResolvedNames &n) {
         resolveWiring(s.name, s.memories, s.units, s.adcOutputMemory, n);
     }},
    {kMapping | kStages | kAnalog | kMemories | kUnits, 0,
     [](const DesignSpec &s, ResolvedNames &) {
         checkMapping(s.name, s.mapping, s.stages,
                      {s.analogArrays, s.memories, s.units});
     }},
};

/** Run the checks @p dirty reaches, in order; @return @p dirty with
 *  the results they rewrote. */
SpecMemberMask
runChecks(const DesignSpec &spec, ResolvedNames &names,
          SpecMemberMask dirty)
{
    for (const Check &check : kChecks) {
        if ((check.reads & dirty) != 0) {
            check.run(spec, names);
            dirty |= check.writes;
        }
    }
    return dirty;
}

/** Make @p out the elements @p make builds from @p in, in order,
 *  assigning over the slots @p out already has. */
template <typename T, typename S, typename Make>
void
rebuildEach(std::vector<T> &out, const std::vector<S> &in, Make make)
{
    if (out.size() > in.size())
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(in.size()),
                  out.end());
    for (size_t i = 0; i < in.size(); ++i) {
        if (i < out.size())
            out[i] = make(in[i]);
        else
            out.push_back(make(in[i]));
    }
}

} // namespace

SpecMemberMask
specMemberBit(std::string_view key)
{
    return memberBit(key);
}

void
DesignSpec::validate() const
{
    ResolvedNames names;
    runChecks(*this, names, kEveryMember);
}

Design
DesignSpec::materialize() const
{
    return MaterializedSpec(*this).release();
}

MaterializedSpec::MaterializedSpec(const DesignSpec &spec)
{
    rebuild(spec, kEveryMember);
}

void
MaterializedSpec::rebuild(const DesignSpec &spec, SpecMemberMask changed)
{
    buildParts(spec, runChecks(spec, names_, changed));
}

void
MaterializedSpec::buildParts(const DesignSpec &spec, SpecMemberMask dirty)
{
    // The parts of the Design in the order the engine registers them
    // (stage order defines StageIds and the topological tiebreak;
    // hardware order is the analog chain and report order). The
    // checks above made every name unique and every reference
    // resolve, so no part repeats a name check or lookup.
    struct Part
    {
        SpecMemberMask reads;
        SpecMemberMask writes;
        void (*run)(const DesignSpec &spec, const ResolvedNames &names,
                    Design &d);
    };
    static constexpr Part kParts[] = {
        {kName | kFps | kClock, 0,
         [](const DesignSpec &s, const ResolvedNames &, Design &d) {
             d.params_.name = s.name;
             d.params_.fps = s.fps;
             d.params_.digitalClock = s.digitalClock;
         }},
        {kStages | kProducers, 0,
         [](const DesignSpec &s, const ResolvedNames &n, Design &d) {
             d.sw_ = SwGraph();
             for (const StageSpec &stage : s.stages)
                 d.sw_.addStage(stage.params);
             for (size_t i = 0; i < n.producers.size(); ++i) {
                 for (StageId producer : n.producers[i])
                     d.sw_.connect(producer, static_cast<StageId>(i));
             }
         }},
        {kAnalog, 0,
         [](const DesignSpec &s, const ResolvedNames &, Design &d) {
             rebuildEach(d.analog_, s.analogArrays,
                         [](const AnalogArraySpec &a) {
                 AnalogArrayParams p;
                 p.name = a.name;
                 p.layer = a.layer;
                 p.numComponents = a.numComponents;
                 p.inputShape = a.inputShape;
                 p.outputShape = a.outputShape;
                 p.componentArea = a.componentArea;
                 return Design::AnalogEntry{
                     AnalogArray(p, a.component.instantiate()), a.role};
             });
         }},
        {kMemories, 0,
         [](const DesignSpec &s, const ResolvedNames &, Design &d) {
             rebuildEach(d.mems_, s.memories, [](const MemorySpec &m) {
                 return m.instantiate();
             });
         }},
        {kUnits, kUnitParts,
         [](const DesignSpec &s, const ResolvedNames &, Design &d) {
             rebuildEach(d.units_, s.units, [](const UnitSpec &u) {
                 if (u.kind == UnitKind::Pipeline)
                     return Design::UnitEntry{ComputeUnit(u.pipeline), {},
                                              {}};
                 return Design::UnitEntry{SystolicArray(u.systolic), {},
                                          {}};
             });
         }},
        {kWiring | kUnitParts, 0,
         [](const DesignSpec &, const ResolvedNames &n, Design &d) {
             d.adcOutputMem_ = n.adcMemory;
             for (size_t u = 0; u < d.units_.size(); ++u) {
                 d.units_[u].inputMems = n.unitInputs[u];
                 d.units_[u].outputMems = n.unitOutputs[u];
             }
         }},
        {kMipi, 0,
         [](const DesignSpec &s, const ResolvedNames &, Design &d) {
             d.mipi_.reset();
             if (s.mipi.present)
                 d.mipi_ = makeMipiCsi2(s.mipi.energyPerByte > 0.0
                                            ? s.mipi.energyPerByte
                                            : mipiDefaultEnergyPerByte);
         }},
        {kTsv, 0,
         [](const DesignSpec &s, const ResolvedNames &, Design &d) {
             d.tsv_.reset();
             if (s.tsv.present)
                 d.tsv_ = makeMicroTsv(s.tsv.energyPerByte > 0.0
                                           ? s.tsv.energyPerByte
                                           : tsvDefaultEnergyPerByte);
         }},
        {kOutputBytes, 0,
         [](const DesignSpec &s, const ResolvedNames &, Design &d) {
             d.outputBytesOverride_ =
                 s.pipelineOutputBytes >= 0 ? s.pipelineOutputBytes : -1;
         }},
        {kMapping, 0,
         [](const DesignSpec &s, const ResolvedNames &, Design &d) {
             d.mapping_ = Mapping();
             for (const auto &[stage, hw] : s.mapping)
                 d.mapping_.map(stage, hw);
         }},
    };
    for (const Part &part : kParts) {
        if ((part.reads & dirty) != 0) {
            part.run(spec, names_, design_);
            dirty |= part.writes;
        }
    }
}

DesignSpec
fromJson(const std::string &text)
{
    return fromJsonValue(Value::parse(text));
}

DesignSpec
loadSpecFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("spec: cannot open '%s' for reading", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromJson(buf.str());
}

void
saveSpecFile(const DesignSpec &spec, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("spec: cannot open '%s' for writing", path.c_str());
    out << toJson(spec);
    if (!out)
        fatal("spec: failed writing '%s'", path.c_str());
}

} // namespace camj::spec

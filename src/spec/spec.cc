#include "spec/spec.h"

#include <algorithm>
#include <array>
#include <cstring>
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

const char *
unitKindName(UnitKind kind)
{
    return kind == UnitKind::Pipeline ? "pipeline" : "systolic";
}

template <class E, const char *(*Name)(E)>
const char *
tokenName(int value)
{
    return Name(static_cast<E>(value));
}

/** The tokens of enum E, whose last value is @p last. */
template <class E, const char *(*Name)(E)>
constexpr EnumTokens
tokens(const char *what, E last)
{
    return {what, static_cast<int>(last) + 1, tokenName<E, Name>};
}

constexpr EnumTokens kStageOps =
    tokens<StageOp, stageOpName>("stage op", StageOp::Identity);
constexpr EnumTokens kLayers =
    tokens<Layer, layerName>("layer", Layer::OffChip);
constexpr EnumTokens kAnalogRoles = tokens<AnalogRole, analogRoleName>(
    "analog role", AnalogRole::AnalogMemory);
constexpr EnumTokens kMemoryKinds = tokens<MemoryKind, memoryKindName>(
    "memory kind", MemoryKind::FrameBuffer);
constexpr EnumTokens kMemoryModels = tokens<MemoryModel, memoryModelName>(
    "memory model", MemoryModel::Regfile);
constexpr EnumTokens kComponentKinds =
    tokens<ComponentKind, componentKindName>("component kind",
                                             ComponentKind::Custom);
constexpr EnumTokens kCellClasses =
    tokens<CellClass, cellClassName>("cell class", CellClass::NonLinear);
constexpr EnumTokens kTimingScopes = tokens<TimingScope, timingScopeName>(
    "timing scope", TimingScope::Frame);
constexpr EnumTokens kBiasModes =
    tokens<BiasMode, biasModeName>("bias mode", BiasMode::GmOverId);
constexpr EnumTokens kSignalDomains =
    tokens<SignalDomain, signalDomainName>("signal domain",
                                           SignalDomain::Digital);
constexpr EnumTokens kUnitKinds =
    tokens<UnitKind, unitKindName>("unit kind", UnitKind::Systolic);

/** The value of @p token; an unknown token is CAMJ-E018 listing the
 *  known ones. */
int
tokenValue(const EnumTokens &t, const std::string &token)
{
    for (int v = 0; v < t.count; ++v) {
        if (token == t.name(v))
            return v;
    }
    std::string known;
    for (int v = 0; v < t.count; ++v)
        known += (known.empty() ? "" : ", ") + std::string(t.name(v));
    fatal(Rule::E018, "spec: unknown %s '%s' (known: %s)", t.what,
          token.c_str(), known.c_str());
}

} // namespace

ComponentKind
componentKindFromName(const std::string &name)
{
    return static_cast<ComponentKind>(tokenValue(kComponentKinds, name));
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

// ----------------------------------------------------------- JSON shape

namespace
{

// The writer's conditions, each asked of the object holding the field.

template <ComponentKind... Kinds>
bool
componentIs(const void *c)
{
    const ComponentKind kind = static_cast<const ComponentSpec *>(c)->kind;
    return ((kind == Kinds) || ...);
}

template <CellClass Class>
bool
cellIs(const void *c)
{
    return static_cast<const CellSpec *>(c)->cls == Class;
}

template <bool Explicit>
bool
memoryModelIsExplicit(const void *m)
{
    return (static_cast<const MemorySpec *>(m)->model ==
            MemoryModel::Explicit) == Explicit;
}

bool
stageReadsInput(const void *s)
{
    return static_cast<const StageSpec *>(s)->params.op != StageOp::Input;
}

bool
stageOverridesOps(const void *s)
{
    return static_cast<const StageSpec *>(s)->params.opsPerOutputOverride !=
           0;
}

using fields::field;
using fields::Required;
using CK = ComponentKind;
using CU = ComputeUnitParams;
using SA = SystolicArrayParams;
using StagePair = std::pair<std::string, std::string>;

} // namespace

constexpr Field kApsFields[] = {
    field<&ApsParams::photodiodeCap>("photodiodeCap"),
    field<&ApsParams::floatingDiffusionCap>("floatingDiffusionCap"),
    field<&ApsParams::columnLoadCap>("columnLoadCap"),
    field<&ApsParams::pixelSwing>("pixelSwing"),
    field<&ApsParams::vdda>("vdda"),
    field<&ApsParams::correlatedDoubleSampling>("correlatedDoubleSampling"),
    field<&ApsParams::pixelsPerComponent>("pixelsPerComponent"),
};
constexpr FieldTable kApsTable = fields::table<ApsParams>(kApsFields);

constexpr Field kAdcFields[] = {
    field<&AdcParams::bits>("bits"),
    field<&AdcParams::energyPerConversionOverride>(
        "energyPerConversionOverride"),
};
constexpr FieldTable kAdcTable = fields::table<AdcParams>(kAdcFields);

constexpr Field kSwitchedCapFields[] = {
    field<&SwitchedCapParams::unitCap>("unitCap"),
    field<&SwitchedCapParams::numCaps>("numCaps"),
    field<&SwitchedCapParams::vswing>("vswing"),
    field<&SwitchedCapParams::vdda>("vdda"),
    field<&SwitchedCapParams::bits>("bits"),
    field<&SwitchedCapParams::active>("active"),
    field<&SwitchedCapParams::gain>("gain"),
    field<&SwitchedCapParams::gmOverId>("gmOverId"),
};
constexpr FieldTable kSwitchedCapTable =
    fields::table<SwitchedCapParams>(kSwitchedCapFields);

constexpr Field kAnalogMemoryFields[] = {
    field<&AnalogMemoryParams::bits>("bits"),
    field<&AnalogMemoryParams::vswing>("vswing"),
    field<&AnalogMemoryParams::vdda>("vdda"),
    field<&AnalogMemoryParams::storageCap>("storageCap"),
    field<&AnalogMemoryParams::readoutLoadCap>("readoutLoadCap"),
    field<&AnalogMemoryParams::readsPerValue>("readsPerValue"),
};
constexpr FieldTable kAnalogMemoryTable =
    fields::table<AnalogMemoryParams>(kAnalogMemoryFields);

constexpr Field kConverterFields[] = {
    field<&ConverterParams::cap>("cap"),
    field<&ConverterParams::bits>("bits"),
    field<&ConverterParams::vswing>("vswing"),
    field<&ConverterParams::vdda>("vdda"),
    field<&ConverterParams::gmOverId>("gmOverId"),
};
constexpr FieldTable kConverterTable =
    fields::table<ConverterParams>(kConverterFields);

// Both keys are required: a defaulted 0 F / 0 V node would silently
// zero the cell's energy.
constexpr Field kCapNodeFields[] = {
    field<&CapNode::capacitance>("capacitance", Required{}),
    field<&CapNode::voltageSwing>("swing", Required{}),
};
constexpr FieldTable kCapNodeTable = fields::table<CapNode>(kCapNodeFields);

constexpr Field kStaticBiasFields[] = {
    field<&StaticBiasParams::loadCapacitance>("loadCapacitance"),
    field<&StaticBiasParams::voltageSwing>("voltageSwing"),
    field<&StaticBiasParams::vdda>("vdda"),
    field<&StaticBiasParams::gain>("gain"),
    field<&StaticBiasParams::gmOverId>("gmOverId"),
    field<&StaticBiasParams::fixedBandwidth>("fixedBandwidth"),
    field<&StaticBiasParams::mode>("mode", &kBiasModes),
};
constexpr FieldTable kStaticBiasTable =
    fields::table<StaticBiasParams>(kStaticBiasFields);

constexpr Field kCellFields[] = {
    field<&CellSpec::cls>("class", Required{}, &kCellClasses),
    field<&CellSpec::name>("name", Required{}),
    field<&CellSpec::caps>("caps", &kCapNodeTable,
                           cellIs<CellClass::Dynamic>),
    field<&CellSpec::bias>("bias", &kStaticBiasTable,
                           cellIs<CellClass::StaticBias>),
    field<&CellSpec::bits>("bits", cellIs<CellClass::NonLinear>),
    field<&CellSpec::energyOverride>("energyOverride",
                                     cellIs<CellClass::NonLinear>),
    field<&CellSpec::spatial>("spatial"),
    field<&CellSpec::temporal>("temporal"),
    field<&CellSpec::scope>("scope", &kTimingScopes),
};
constexpr FieldTable kCellTable = fields::table<CellSpec>(kCellFields);

constexpr Field kCustomComponentFields[] = {
    field<&CustomComponentSpec::name>("name", Required{}),
    field<&CustomComponentSpec::input>("inputDomain", Required{},
                                       &kSignalDomains),
    field<&CustomComponentSpec::output>("outputDomain", Required{},
                                        &kSignalDomains),
    field<&CustomComponentSpec::cells>("cells", &kCellTable),
};
constexpr FieldTable kCustomComponentTable =
    fields::table<CustomComponentSpec>(kCustomComponentFields);

// A component writes the blocks of its kind only.
constexpr Field kComponentFields[] = {
    field<&ComponentSpec::kind>("kind", Required{}, &kComponentKinds),
    field<&ComponentSpec::aps>(
        "aps", &kApsTable,
        componentIs<CK::Aps4T, CK::Aps3T, CK::Dps, CK::PwmPixel,
                    CK::DvsPixel>),
    field<&ComponentSpec::adc>("adc", &kAdcTable,
                               componentIs<CK::Dps, CK::ColumnAdc>),
    field<&ComponentSpec::sc>(
        "switchedCap", &kSwitchedCapTable,
        componentIs<CK::SwitchedCapMac, CK::ChargeAdder, CK::Scaler,
                    CK::AbsUnit>),
    field<&ComponentSpec::maxInputs>("maxInputs",
                                     componentIs<CK::MaxUnit>),
    field<&ComponentSpec::comparatorEnergyOverride>(
        "energyOverride", componentIs<CK::Comparator>),
    field<&ComponentSpec::logLoadCap>("loadCap", componentIs<CK::LogUnit>),
    field<&ComponentSpec::logVdda>("vdda", componentIs<CK::LogUnit>),
    field<&ComponentSpec::analogMem>(
        "analogMemory", &kAnalogMemoryTable,
        componentIs<CK::PassiveAnalogMemory, CK::ActiveAnalogMemory>),
    field<&ComponentSpec::conv>(
        "converter", &kConverterTable,
        componentIs<CK::ChargeToVoltage, CK::CurrentToVoltage,
                    CK::TimeToVoltage, CK::SampleHold>),
    field<&ComponentSpec::custom>("custom", &kCustomComponentTable,
                                  componentIs<CK::Custom>),
};
constexpr FieldTable kComponentTable =
    fields::table<ComponentSpec>(kComponentFields);

constexpr Field kStageFields[] = {
    field<&StageSpec::params, &StageParams::name>("name", Required{}),
    field<&StageSpec::params, &StageParams::op>("op", Required{},
                                                &kStageOps),
    field<&StageSpec::params, &StageParams::inputSize>("inputSize",
                                                       stageReadsInput),
    field<&StageSpec::params, &StageParams::outputSize>("outputSize",
                                                        Required{}),
    field<&StageSpec::params, &StageParams::kernel>("kernel"),
    field<&StageSpec::params, &StageParams::stride>("stride"),
    field<&StageSpec::params, &StageParams::bitDepth>("bitDepth"),
    field<&StageSpec::params, &StageParams::opsPerOutputOverride>(
        "opsPerOutput", stageOverridesOps),
    field<&StageSpec::inputs>("inputs"),
};
constexpr FieldTable kStageTable = fields::table<StageSpec>(kStageFields);

constexpr Field kAnalogArrayFields[] = {
    field<&AnalogArraySpec::name>("name", Required{}),
    field<&AnalogArraySpec::layer>("layer", &kLayers),
    field<&AnalogArraySpec::role>("role", Required{}, &kAnalogRoles),
    field<&AnalogArraySpec::numComponents>("numComponents", Required{}),
    field<&AnalogArraySpec::inputShape>("inputShape"),
    field<&AnalogArraySpec::outputShape>("outputShape"),
    field<&AnalogArraySpec::componentArea>("componentArea"),
    field<&AnalogArraySpec::component>("component", Required{},
                                       &kComponentTable),
};
constexpr FieldTable kAnalogArrayTable =
    fields::table<AnalogArraySpec>(kAnalogArrayFields);

// nodeNm feeds the derived models and the electricals the explicit
// one: the writer emits one group or the other.
constexpr Field kMemoryFields[] = {
    field<&MemorySpec::name>("name", Required{}),
    field<&MemorySpec::layer>("layer", &kLayers),
    field<&MemorySpec::kind>("kind", &kMemoryKinds),
    field<&MemorySpec::model>("model", &kMemoryModels),
    field<&MemorySpec::capacityWords>("capacityWords", Required{}),
    field<&MemorySpec::wordBits>("wordBits"),
    field<&MemorySpec::activeFraction>("activeFraction"),
    field<&MemorySpec::nodeNm>("nodeNm", memoryModelIsExplicit<false>),
    field<&MemorySpec::readEnergyPerWord>("readEnergyPerWord",
                                          memoryModelIsExplicit<true>),
    field<&MemorySpec::writeEnergyPerWord>("writeEnergyPerWord",
                                           memoryModelIsExplicit<true>),
    field<&MemorySpec::leakagePower>("leakagePower",
                                     memoryModelIsExplicit<true>),
    field<&MemorySpec::readPorts>("readPorts", memoryModelIsExplicit<true>),
    field<&MemorySpec::writePorts>("writePorts",
                                   memoryModelIsExplicit<true>),
    field<&MemorySpec::area>("area", memoryModelIsExplicit<true>),
};
constexpr FieldTable kMemoryTable = fields::table<MemorySpec>(kMemoryFields);

constexpr Field kPipelineUnitFields[] = {
    field<&UnitSpec::pipeline, &CU::name>("name", Required{}),
    field<&UnitSpec::pipeline, &CU::layer>("layer", &kLayers),
    field<&UnitSpec::pipeline, &CU::inputPixelsPerCycle>(
        "inputPixelsPerCycle"),
    field<&UnitSpec::pipeline, &CU::outputPixelsPerCycle>(
        "outputPixelsPerCycle"),
    field<&UnitSpec::pipeline, &CU::energyPerCycle>("energyPerCycle"),
    field<&UnitSpec::pipeline, &CU::numStages>("numStages"),
    field<&UnitSpec::pipeline, &CU::clock>("clock"),
    field<&UnitSpec::pipeline, &CU::opsPerCycle>("opsPerCycle"),
    field<&UnitSpec::pipeline, &CU::area>("area"),
    field<&UnitSpec::inputMemories>("inputMemories"),
    field<&UnitSpec::outputMemories>("outputMemories"),
};
constexpr FieldTable kPipelineUnitTable =
    fields::table<UnitSpec>(kPipelineUnitFields);

constexpr Field kSystolicUnitFields[] = {
    field<&UnitSpec::systolic, &SA::name>("name", Required{}),
    field<&UnitSpec::systolic, &SA::layer>("layer", &kLayers),
    field<&UnitSpec::systolic, &SA::rows>("rows"),
    field<&UnitSpec::systolic, &SA::cols>("cols"),
    field<&UnitSpec::systolic, &SA::energyPerMac>("energyPerMac"),
    field<&UnitSpec::systolic, &SA::clock>("clock"),
    field<&UnitSpec::systolic, &SA::peArea>("peArea"),
    field<&UnitSpec::inputMemories>("inputMemories"),
    field<&UnitSpec::outputMemories>("outputMemories"),
};
constexpr FieldTable kSystolicUnitTable =
    fields::table<UnitSpec>(kSystolicUnitFields);

// A unit's kind picks the table of the rest of its fields.
constexpr Field kUnitKindField[] = {
    field<&UnitSpec::kind>("kind", Required{}, &kUnitKinds),
};
constexpr const FieldTable *kUnitVariants[] = {&kPipelineUnitTable,
                                               &kSystolicUnitTable};
constexpr FieldTable kUnitTable =
    fields::table<UnitSpec>(kUnitKindField, kUnitVariants);

constexpr Field kCommFields[] = {
    field<&CommSpec::energyPerByte>("energyPerByte"),
};
constexpr FieldTable kCommTable = fields::table<CommSpec>(
    kCommFields, {}, fields::fieldAt<&CommSpec::present>);

constexpr Field kMappingFields[] = {
    field<&StagePair::first>("stage", Required{}),
    field<&StagePair::second>("hw", Required{}),
};
constexpr FieldTable kMappingTable = fields::table<StagePair>(kMappingFields);

void
appendPath(std::string &out, const KeyPath *p)
{
    if (p == nullptr)
        return;
    appendPath(out, p->parent);
    if (!out.empty())
        out += '.';
    out += p->member;
    if (p->element == nullptr)
        return;
    out += '[';
    if (const Value *n = p->element->find("name");
        n != nullptr && n->isString() && !n->asString().empty())
        out += n->asString();
    else
        out += std::to_string(p->index);
    out += ']';
}

// -------------------------------------------------------- serialization

namespace
{

Value
shapeToJson(const Shape &s)
{
    Value arr = Value::makeArray();
    arr.reserve(3);
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

template <class T>
T &
as(void *field)
{
    return *static_cast<T *>(field);
}

int
enumValue(const void *field)
{
    int value;
    std::memcpy(&value, field, sizeof value);
    return value;
}

} // namespace

const FieldTable *
variantOf(const FieldTable &t, void *owner)
{
    if (t.variants.empty())
        return nullptr;
    return t.variants[static_cast<size_t>(enumValue(t.fields[0].at(owner)))];
}

namespace
{

Value writeObject(const FieldTable &t, void *owner);

void
writeFields(std::span<const Field> fs, void *owner, Value::Object &out)
{
    for (const Field &f : fs) {
        if (f.written != nullptr && !f.written(owner))
            continue;
        void *p = f.at(owner);
        Value v;
        switch (f.kind) {
          case FieldKind::Number: v = Value(as<double>(p)); break;
          case FieldKind::Int32: v = Value(as<int>(p)); break;
          case FieldKind::Int64: v = Value(as<int64_t>(p)); break;
          case FieldKind::Bool: v = Value(as<bool>(p)); break;
          case FieldKind::String: v = Value(as<std::string>(p)); break;
          case FieldKind::Enum: v = Value(f.tokens->name(enumValue(p))); break;
          case FieldKind::Shape: v = shapeToJson(as<Shape>(p)); break;
          case FieldKind::StringList:
            v = Value::makeArray();
            for (const std::string &e : as<std::vector<std::string>>(p))
                v.push(Value(e));
            break;
          case FieldKind::Object:
            if (f.nested->present != nullptr &&
                !as<bool>(f.nested->present(p)))
                continue;
            v = writeObject(*f.nested, p);
            break;
          case FieldKind::ObjectList:
            v = Value::makeArray();
            v.reserve(f.nested->size(p));
            for (size_t i = 0; i < f.nested->size(p); ++i)
                v.push(writeObject(*f.nested, f.nested->element(p, i)));
            break;
        }
        out.emplace_back(std::string(f.key), std::move(v));
    }
}

Value
writeObject(const FieldTable &t, void *owner)
{
    Value o = Value::makeObject();
    writeFields(t.fields, owner, o.mutableObject());
    if (const FieldTable *variant = variantOf(t, owner))
        writeFields(variant->fields, owner, o.mutableObject());
    return o;
}

/** Rethrow @p e as raised at @p path, keeping its rule. */
[[noreturn]] void
throwAt(const KeyPath &path, const ConfigError &e)
{
    std::string at;
    appendPath(at, &path);
    throw ConfigError("fatal: " + at + ": " + e.message(), e.rule());
}

void readObject(const FieldTable &t, const Value &obj, void *owner,
                const KeyPath *path);

/** Read @p m, the member @p f names, into @p owner, a struct built
 *  with its defaults. An error converting the member names its path;
 *  a nested object's fields name their own. */
void
readMember(const Field &f, const Value &m, void *owner,
           const KeyPath *parent)
{
    const KeyPath path{parent, f.key};
    void *p = f.at(owner);
    try {
        switch (f.kind) {
          case FieldKind::Number: as<double>(p) = m.asNumber(); return;
          case FieldKind::Int32: as<int>(p) = m.asInt32(); return;
          case FieldKind::Int64: as<int64_t>(p) = m.asInt(); return;
          case FieldKind::Bool: as<bool>(p) = m.asBool(); return;
          case FieldKind::String: as<std::string>(p) = m.asString(); return;
          case FieldKind::Enum: {
            const int value = tokenValue(*f.tokens, m.asString());
            std::memcpy(p, &value, sizeof value);
            return;
          }
          case FieldKind::Shape: as<Shape>(p) = shapeFromJson(m); return;
          case FieldKind::StringList: {
            auto &list = as<std::vector<std::string>>(p);
            list.clear();
            list.reserve(m.asArray().size());
            for (const Value &e : m.asArray())
                list.push_back(e.asString());
            return;
          }
          case FieldKind::Object:
            break;
          case FieldKind::ObjectList:
            f.nested->resize(p, m.asArray().size());
            break;
        }
    } catch (const ConfigError &e) {
        throwAt(path, e);
    }
    if (f.kind == FieldKind::Object) {
        readObject(*f.nested, m, p, &path);
        if (f.nested->present != nullptr)
            as<bool>(f.nested->present(p)) = true;
        return;
    }
    const Value::Array &arr = m.asArray();
    for (size_t i = 0; i < arr.size(); ++i) {
        const KeyPath element{parent, f.key, &arr[i], i};
        readObject(*f.nested, arr[i], f.nested->element(p, i), &element);
    }
}

/** Read member @p f of @p obj into @p owner; an absent member leaves
 *  the default in place. */
void
readField(const Field &f, const Value &obj, void *owner,
          const KeyPath *parent)
{
    if (const Value *m = obj.find(f.key)) {
        readMember(f, *m, owner, parent);
    } else if (f.required) {
        try {
            obj.at(f.key); // throws, naming what the object has
        } catch (const ConfigError &e) {
            throwAt({parent, f.key}, e);
        }
    }
}

/** Read the object @p obj into @p owner. A value of another JSON
 *  type is refused as every kind refuses one, naming @p path. */
void
readObject(const FieldTable &t, const Value &obj, void *owner,
           const KeyPath *path)
{
    if (!obj.isObject()) {
        try {
            obj.asObject(); // throws "json: expected object, got ..."
        } catch (const ConfigError &e) {
            throwAt(*path, e);
        }
    }
    for (const Field &f : t.fields)
        readField(f, obj, owner, path);
    if (const FieldTable *variant = variantOf(t, owner)) {
        for (const Field &f : variant->fields)
            readField(f, obj, owner, path);
    }
}

void
checkVersion(const Value &doc)
{
    int64_t version = 1;
    if (const Value *v = doc.find(kSpecVersionKey)) {
        try {
            version = v->asInt();
        } catch (const ConfigError &e) {
            throwAt({nullptr, kSpecVersionKey}, e);
        }
    }
    if (version != 1)
        fatal(Rule::E018,
              "spec: unsupported camjSpecVersion %lld (this build "
              "reads version 1)", static_cast<long long>(version));
}

/** The top-level members: the version, then kSpecFields. */
constexpr size_t kSpecMembers = 1 + std::size(kSpecFields);

} // namespace

void
assignField(const Field &f, const Value &value, void *owner)
{
    f.reset(owner);
    readMember(f, value, owner, nullptr);
}

json::Value
toJsonValue(const DesignSpec &spec, SpecMemberMask members)
{
    Value o = Value::makeObject();
    o.reserve(kSpecMembers);
    if ((members & 1) != 0)
        o.set(std::string(kSpecVersionKey), Value(1));
    for (size_t i = 0; i < std::size(kSpecFields); ++i) {
        if ((members & (SpecMemberMask{2} << i)) != 0)
            writeFields({&kSpecFields[i], 1}, const_cast<DesignSpec *>(&spec),
                        o.mutableObject());
    }
    return o;
}

std::string
toJson(const DesignSpec &spec)
{
    return toJsonValue(spec).dump(2) + "\n";
}

DesignSpec
fromJsonValue(const Value &o)
{
    DesignSpec spec;
    fromJsonValue(o, ~SpecMemberMask{0}, spec);
    return spec;
}

void
fromJsonValue(const Value &o, SpecMemberMask members, DesignSpec &spec)
{
    if ((members & 1) != 0)
        checkVersion(o);
    for (size_t i = 0; i < std::size(kSpecFields); ++i) {
        if ((members & (SpecMemberMask{2} << i)) != 0) {
            kSpecFields[i].reset(&spec);
            readField(kSpecFields[i], o, &spec, nullptr);
        }
    }
}

// ------------------------------------------------- validate, materialize

namespace
{

constexpr SpecMemberMask kName = specMemberBit("name");
constexpr SpecMemberMask kFps = specMemberBit("fps");
constexpr SpecMemberMask kClock = specMemberBit("digitalClock");
constexpr SpecMemberMask kStages = specMemberBit("stages");
constexpr SpecMemberMask kAnalog = specMemberBit("analogArrays");
constexpr SpecMemberMask kMemories = specMemberBit("memories");
constexpr SpecMemberMask kUnits = specMemberBit("units");
constexpr SpecMemberMask kAdcMemory = specMemberBit("adcOutputMemory");
constexpr SpecMemberMask kMipi = specMemberBit("mipi");
constexpr SpecMemberMask kTsv = specMemberBit("tsv");
constexpr SpecMemberMask kOutputBytes = specMemberBit("pipelineOutputBytes");
constexpr SpecMemberMask kMapping = specMemberBit("mapping");
constexpr SpecMemberMask kEveryMember =
    (SpecMemberMask{1} << (kSpecMembers + std::size(kRefFields))) - 1;

// The element fields the checks read.
constexpr SpecMemberMask kStageNames = specFieldBits("stages", "name");
constexpr SpecMemberMask kStageEdges =
    specFieldBits("stages", "op") | specFieldBits("stages", "inputs");
constexpr SpecMemberMask kMemoryNames = specFieldBits("memories", "name");
constexpr SpecMemberMask kHardwareNames =
    specFieldBits("analogArrays", "name") | kMemoryNames |
    specFieldBits("units", "name");
constexpr SpecMemberMask kUnitPorts =
    specFieldBits("units", "inputMemories") |
    specFieldBits("units", "outputMemories");

// The results a later routine reads, one bit each above the fields.
constexpr SpecMemberMask kProducers = kEveryMember + 1;
constexpr SpecMemberMask kWiring = kProducers << 1;
constexpr SpecMemberMask kUnitParts = kProducers << 2;
constexpr SpecMemberMask kTargets = kProducers << 3;
static_assert(kSpecMembers + std::size(kRefFields) + 4 <= 32);

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

    /** The hardware at @p i as a class and an index within it. */
    HwTarget target(size_t i) const
    {
        if (i < analog.size())
            return {HwKind::Analog, static_cast<int>(i)};
        i -= analog.size();
        if (i < memories.size())
            return {HwKind::Memory, static_cast<int>(i)};
        return {HwKind::Unit, static_cast<int>(i - memories.size())};
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

/** Mapping targets exist; no stage is mapped twice. Records each
 *  stage's target in @p targets. */
void
resolveMapping(const std::string &design,
               const std::vector<std::pair<std::string, std::string>> &mapping,
               const std::vector<StageSpec> &stages, const Hardware &hw,
               std::vector<HwTarget> &targets)
{
    targets.assign(stages.size(), HwTarget{});
    for (size_t i = 0; i < mapping.size(); ++i) {
        const auto &[stage, target] = mapping[i];
        const int stage_index = stageIndex(stages, stage);
        if (stage_index < 0)
            fatal(Rule::E003,
                  "DesignSpec %s: field 'mapping' references unknown "
                  "stage '%s'", design.c_str(), stage.c_str());
        const size_t hw_index = hw.find(target);
        if (hw_index == hw.size()) {
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
        targets[static_cast<size_t>(stage_index)] = hw.target(hw_index);
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
    {kStageNames, 0,
     [](const DesignSpec &s, ResolvedNames &) {
         checkStageNames(s.name, s.stages);
     }},
    {kStageNames | kStageEdges, kProducers,
     [](const DesignSpec &s, ResolvedNames &n) {
         resolveProducers(s.name, s.stages, n.producers);
     }},
    {kHardwareNames, 0,
     [](const DesignSpec &s, ResolvedNames &) {
         checkHardwareNames(s.name,
                            {s.analogArrays, s.memories, s.units});
     }},
    {kMemoryNames | kUnitPorts | kAdcMemory, kWiring,
     [](const DesignSpec &s, ResolvedNames &n) {
         resolveWiring(s.name, s.memories, s.units, s.adcOutputMemory, n);
     }},
    {kMapping | kStageNames | kHardwareNames, kTargets,
     [](const DesignSpec &s, ResolvedNames &n) {
         resolveMapping(s.name, s.mapping, s.stages,
                        {s.analogArrays, s.memories, s.units}, n.targets);
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
        {kTargets, 0,
         [](const DesignSpec &, const ResolvedNames &n, Design &d) {
             d.targets_ = n.targets;
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

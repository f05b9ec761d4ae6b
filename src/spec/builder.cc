#include "spec/builder.h"

#include "common/logging.h"

namespace camj::spec
{

DesignBuilder::DesignBuilder(std::string design_name)
{
    if (design_name.empty())
        fatal(Rule::E001, "DesignBuilder: empty design name");
    spec_.name = std::move(design_name);
}

DesignBuilder::DesignBuilder(DesignSpec spec)
    : spec_(std::move(spec))
{
    spec_.validate();
}

DesignBuilder &
DesignBuilder::fps(double value)
{
    if (value <= 0.0)
        fatal(Rule::E001, "DesignBuilder %s: fps must be positive",
              spec_.name.c_str());
    spec_.fps = value;
    return *this;
}

DesignBuilder &
DesignBuilder::digitalClock(Frequency hz)
{
    if (hz <= 0.0)
        fatal(Rule::E001, "DesignBuilder %s: digital clock must be positive",
              spec_.name.c_str());
    spec_.digitalClock = hz;
    return *this;
}

bool
DesignBuilder::hasStage(const std::string &name) const
{
    for (const StageSpec &s : spec_.stages) {
        if (s.params.name == name)
            return true;
    }
    return false;
}

bool
DesignBuilder::hasMemory(const std::string &name) const
{
    for (const MemorySpec &m : spec_.memories) {
        if (m.name == name)
            return true;
    }
    return false;
}

bool
DesignBuilder::hasHardware(const std::string &name) const
{
    for (const AnalogArraySpec &a : spec_.analogArrays) {
        if (a.name == name)
            return true;
    }
    if (hasMemory(name))
        return true;
    for (const UnitSpec &u : spec_.units) {
        if (u.name() == name)
            return true;
    }
    return false;
}

UnitSpec *
DesignBuilder::findUnit(const std::string &name)
{
    for (UnitSpec &u : spec_.units) {
        if (u.name() == name)
            return &u;
    }
    return nullptr;
}

void
DesignBuilder::checkNewHardwareName(const std::string &name) const
{
    if (name.empty())
        fatal(Rule::E002, "DesignBuilder %s: empty hardware name",
              spec_.name.c_str());
    if (hasHardware(name))
        fatal(Rule::E002, "DesignBuilder %s: duplicate hardware name '%s'",
              spec_.name.c_str(), name.c_str());
}

void
DesignBuilder::checkMemoryRefs(const std::vector<std::string> &mems,
                               const std::string &who) const
{
    for (const std::string &m : mems) {
        if (!hasMemory(m)) {
            std::vector<std::string> known;
            for (const MemorySpec &mem : spec_.memories)
                known.push_back(mem.name);
            fatal(Rule::E003,
                  "DesignBuilder %s: %s references unknown memory "
                  "'%s' (registered memories: %s)", spec_.name.c_str(),
                  who.c_str(), m.c_str(), joinNames(known).c_str());
        }
    }
}

std::string
DesignBuilder::knownUnitNames() const
{
    std::vector<std::string> known;
    for (const UnitSpec &u : spec_.units)
        known.push_back(u.name());
    return joinNames(known);
}

DesignBuilder &
DesignBuilder::stage(StageParams params, std::vector<std::string> inputs)
{
    // Constructing a Stage runs the full shape/stencil validation now.
    Stage probe(params);
    if (hasStage(params.name))
        fatal(Rule::E002, "DesignBuilder %s: duplicate stage '%s'",
              spec_.name.c_str(), params.name.c_str());
    const int arity = stageOpArity(params.op);
    if (static_cast<int>(inputs.size()) != arity)
        fatal(Rule::E004,
              "DesignBuilder %s: stage '%s' (%s) needs %d input(s), "
              "got %zu", spec_.name.c_str(), params.name.c_str(),
              stageOpName(params.op), arity, inputs.size());
    for (const std::string &in : inputs) {
        if (!hasStage(in))
            fatal(Rule::E003,
                  "DesignBuilder %s: stage '%s' reads unknown stage "
                  "'%s' (stages are declared producer-first)",
                  spec_.name.c_str(), params.name.c_str(), in.c_str());
    }
    spec_.stages.push_back({std::move(params), std::move(inputs)});
    return *this;
}

DesignBuilder &
DesignBuilder::inputStage(const std::string &name, Shape output,
                          int bit_depth)
{
    return stage({.name = name,
                  .op = StageOp::Input,
                  .inputSize = {}, // ignored for Input stages
                  .outputSize = output,
                  .bitDepth = bit_depth});
}

DesignBuilder &
DesignBuilder::analogArray(AnalogArraySpec array)
{
    checkNewHardwareName(array.name);
    // Instantiating validates the component parameters eagerly.
    AComponent probe = array.component.instantiate();
    (void)probe;
    spec_.analogArrays.push_back(std::move(array));
    return *this;
}

DesignBuilder &
DesignBuilder::memory(MemorySpec mem)
{
    checkNewHardwareName(mem.name);
    DigitalMemory probe = mem.instantiate();
    (void)probe;
    spec_.memories.push_back(std::move(mem));
    return *this;
}

DesignBuilder &
DesignBuilder::sram(const std::string &name, Layer layer,
                    MemoryKind kind, int64_t words, int word_bits,
                    int nm, double active_fraction)
{
    MemorySpec m;
    m.name = name;
    m.layer = layer;
    m.kind = kind;
    m.model = MemoryModel::Sram;
    m.capacityWords = words;
    m.wordBits = word_bits;
    m.nodeNm = nm;
    m.activeFraction = active_fraction;
    return memory(std::move(m));
}

DesignBuilder &
DesignBuilder::sttram(const std::string &name, Layer layer,
                      MemoryKind kind, int64_t words, int word_bits,
                      int nm, double active_fraction)
{
    MemorySpec m;
    m.name = name;
    m.layer = layer;
    m.kind = kind;
    m.model = MemoryModel::Sttram;
    m.capacityWords = words;
    m.wordBits = word_bits;
    m.nodeNm = nm;
    m.activeFraction = active_fraction;
    return memory(std::move(m));
}

DesignBuilder &
DesignBuilder::computeUnit(ComputeUnitParams params,
                           std::vector<std::string> input_mems,
                           std::vector<std::string> output_mems)
{
    checkNewHardwareName(params.name);
    ComputeUnit probe(params);
    (void)probe;
    checkMemoryRefs(input_mems,
                    "computeUnit('" + params.name + "').inputMemories");
    checkMemoryRefs(output_mems,
                    "computeUnit('" + params.name +
                        "').outputMemories");
    UnitSpec u;
    u.kind = UnitKind::Pipeline;
    u.pipeline = std::move(params);
    u.inputMemories = std::move(input_mems);
    u.outputMemories = std::move(output_mems);
    spec_.units.push_back(std::move(u));
    return *this;
}

DesignBuilder &
DesignBuilder::systolicArray(SystolicArrayParams params,
                             std::vector<std::string> input_mems,
                             std::vector<std::string> output_mems)
{
    checkNewHardwareName(params.name);
    SystolicArray probe(params);
    (void)probe;
    checkMemoryRefs(input_mems, "systolicArray('" + params.name +
                                    "').inputMemories");
    checkMemoryRefs(output_mems, "systolicArray('" + params.name +
                                     "').outputMemories");
    UnitSpec u;
    u.kind = UnitKind::Systolic;
    u.systolic = std::move(params);
    u.inputMemories = std::move(input_mems);
    u.outputMemories = std::move(output_mems);
    spec_.units.push_back(std::move(u));
    return *this;
}

DesignBuilder &
DesignBuilder::adcOutput(const std::string &mem_name)
{
    checkMemoryRefs({mem_name}, "adcOutput");
    spec_.adcOutputMemory = mem_name;
    return *this;
}

DesignBuilder &
DesignBuilder::connectMemoryToUnit(const std::string &mem_name,
                                   const std::string &unit_name)
{
    checkMemoryRefs({mem_name}, "connectMemoryToUnit");
    UnitSpec *u = findUnit(unit_name);
    if (u == nullptr)
        fatal(Rule::E003,
              "DesignBuilder %s: connectMemoryToUnit('%s', '%s'): no "
              "unit named '%s' (registered units: %s)",
              spec_.name.c_str(), mem_name.c_str(), unit_name.c_str(),
              unit_name.c_str(), knownUnitNames().c_str());
    u->inputMemories.push_back(mem_name);
    return *this;
}

DesignBuilder &
DesignBuilder::connectUnitToMemory(const std::string &unit_name,
                                   const std::string &mem_name)
{
    checkMemoryRefs({mem_name}, "connectUnitToMemory");
    UnitSpec *u = findUnit(unit_name);
    if (u == nullptr)
        fatal(Rule::E003,
              "DesignBuilder %s: connectUnitToMemory('%s', '%s'): no "
              "unit named '%s' (registered units: %s)",
              spec_.name.c_str(), unit_name.c_str(), mem_name.c_str(),
              unit_name.c_str(), knownUnitNames().c_str());
    u->outputMemories.push_back(mem_name);
    return *this;
}

DesignBuilder &
DesignBuilder::mipi(Energy energy_per_byte)
{
    if (energy_per_byte < 0.0)
        fatal(Rule::E016, "DesignBuilder %s: negative MIPI energy per byte",
              spec_.name.c_str());
    spec_.mipi.present = true;
    spec_.mipi.energyPerByte = energy_per_byte;
    return *this;
}

DesignBuilder &
DesignBuilder::tsv(Energy energy_per_byte)
{
    if (energy_per_byte < 0.0)
        fatal(Rule::E016, "DesignBuilder %s: negative uTSV energy per byte",
              spec_.name.c_str());
    spec_.tsv.present = true;
    spec_.tsv.energyPerByte = energy_per_byte;
    return *this;
}

DesignBuilder &
DesignBuilder::pipelineOutputBytes(int64_t bytes)
{
    if (bytes < 0)
        fatal(Rule::E016, "DesignBuilder %s: negative pipeline output bytes",
              spec_.name.c_str());
    spec_.pipelineOutputBytes = bytes;
    return *this;
}

DesignBuilder &
DesignBuilder::map(const std::string &stage_name,
                   const std::string &hw_name)
{
    if (!hasStage(stage_name))
        fatal(Rule::E003,
              "DesignBuilder %s: map('%s', '%s') references unknown "
              "stage '%s'", spec_.name.c_str(), stage_name.c_str(),
              hw_name.c_str(), stage_name.c_str());
    if (!hasHardware(hw_name)) {
        std::vector<std::string> known;
        for (const AnalogArraySpec &a : spec_.analogArrays)
            known.push_back(a.name);
        for (const MemorySpec &m : spec_.memories)
            known.push_back(m.name);
        for (const UnitSpec &u : spec_.units)
            known.push_back(u.name());
        fatal(Rule::E003,
              "DesignBuilder %s: map('%s', '%s') targets unknown "
              "hardware '%s' (registered hardware: %s)",
              spec_.name.c_str(), stage_name.c_str(), hw_name.c_str(),
              hw_name.c_str(), joinNames(known).c_str());
    }
    for (const auto &[stage, hw] : spec_.mapping) {
        if (stage == stage_name)
            fatal(Rule::E008,
                  "DesignBuilder %s: stage '%s' is already mapped to "
                  "'%s'", spec_.name.c_str(), stage_name.c_str(),
                  hw.c_str());
    }
    spec_.mapping.emplace_back(stage_name, hw_name);
    return *this;
}

Design
DesignBuilder::build() const
{
    return spec_.materialize();
}

} // namespace camj::spec

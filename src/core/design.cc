#include "core/design.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/pipeline.h"

namespace camj
{

const std::string &
Design::UnitEntry::name() const
{
    return std::visit([](const auto &u) -> const std::string & {
        return u.name();
    }, unit);
}

Layer
Design::UnitEntry::layer() const
{
    return std::visit([](const auto &u) { return u.layer(); }, unit);
}

Area
Design::UnitEntry::area() const
{
    return std::visit([](const auto &u) { return u.area(); }, unit);
}

Design::Design(DesignParams params)
    : params_(std::move(params))
{
    if (params_.name.empty())
        fatal(Rule::E001, "Design: empty name");
    if (params_.fps <= 0.0)
        fatal(Rule::E001,
              "Design %s: fps must be positive", params_.name.c_str());
    if (params_.digitalClock <= 0.0)
        fatal(Rule::E001, "Design %s: digital clock must be positive",
              params_.name.c_str());
}

void
Design::checkUniqueHwName(const std::string &name) const
{
    for (const auto &a : analog_) {
        if (a.array.name() == name)
            fatal(Rule::E002, "Design %s: duplicate hardware name '%s'",
                  params_.name.c_str(), name.c_str());
    }
    for (const auto &m : mems_) {
        if (m.name() == name)
            fatal(Rule::E002, "Design %s: duplicate hardware name '%s'",
                  params_.name.c_str(), name.c_str());
    }
    for (const auto &u : units_) {
        if (u.name() == name)
            fatal(Rule::E002, "Design %s: duplicate hardware name '%s'",
                  params_.name.c_str(), name.c_str());
    }
}

void
Design::addAnalogArray(AnalogArray array, AnalogRole role)
{
    checkUniqueHwName(array.name());
    analog_.push_back({std::move(array), role});
}

void
Design::addMemory(DigitalMemory mem)
{
    checkUniqueHwName(mem.name());
    mems_.push_back(std::move(mem));
}

void
Design::addComputeUnit(ComputeUnit unit)
{
    checkUniqueHwName(unit.name());
    UnitEntry e{std::move(unit), {}, {}};
    units_.push_back(std::move(e));
}

void
Design::addSystolicArray(SystolicArray array)
{
    checkUniqueHwName(array.name());
    UnitEntry e{std::move(array), {}, {}};
    units_.push_back(std::move(e));
}

namespace
{

/** "'a', 'b', 'c'" for not-found diagnostics. */
template <typename Range, typename NameFn>
std::string
registeredNames(const Range &range, NameFn name)
{
    std::string out;
    for (const auto &item : range) {
        if (!out.empty())
            out += ", ";
        // Appended piecewise: `"'" + name(item)` trips a gcc 12
        // -Wrestrict false positive inside libstdc++'s insert().
        out += '\'';
        out += name(item);
        out += '\'';
    }
    return out.empty() ? "<none>" : out;
}

} // namespace

int
Design::findMemory(const std::string &name, const char *who) const
{
    for (size_t i = 0; i < mems_.size(); ++i) {
        if (mems_[i].name() == name)
            return static_cast<int>(i);
    }
    fatal(Rule::E003,
          "Design %s: %s: no memory named '%s' (registered memories: "
          "%s)", params_.name.c_str(), who, name.c_str(),
          registeredNames(mems_, [](const DigitalMemory &m) {
              return m.name();
          }).c_str());
}

int
Design::findUnit(const std::string &name, const char *who) const
{
    for (size_t i = 0; i < units_.size(); ++i) {
        if (units_[i].name() == name)
            return static_cast<int>(i);
    }
    fatal(Rule::E003,
          "Design %s: %s: no compute unit named '%s' (registered "
          "units: %s)", params_.name.c_str(), who, name.c_str(),
          registeredNames(units_, [](const UnitEntry &u) {
              return u.name();
          }).c_str());
}

int
Design::findAnalog(const std::string &name) const
{
    for (size_t i = 0; i < analog_.size(); ++i) {
        if (analog_[i].array.name() == name)
            return static_cast<int>(i);
    }
    return -1;
}

void
Design::setAdcOutput(const std::string &mem_name)
{
    adcOutputMem_ = findMemory(mem_name, "setAdcOutput");
}

void
Design::connectMemoryToUnit(const std::string &mem_name,
                            const std::string &unit_name)
{
    int m = findMemory(mem_name, "connectMemoryToUnit");
    int u = findUnit(unit_name, "connectMemoryToUnit");
    units_[static_cast<size_t>(u)].inputMems.push_back(m);
}

void
Design::connectUnitToMemory(const std::string &unit_name,
                            const std::string &mem_name)
{
    int u = findUnit(unit_name, "connectUnitToMemory");
    int m = findMemory(mem_name, "connectUnitToMemory");
    units_[static_cast<size_t>(u)].outputMems.push_back(m);
}

void
Design::setMipi(CommInterface iface)
{
    if (iface.kind() != CommKind::MipiCsi2)
        fatal(Rule::E016, "Design %s: setMipi expects a MIPI interface",
              params_.name.c_str());
    mipi_ = std::move(iface);
}

void
Design::setTsv(CommInterface iface)
{
    if (iface.kind() != CommKind::MicroTsv)
        fatal(Rule::E016, "Design %s: setTsv expects a uTSV interface",
              params_.name.c_str());
    tsv_ = std::move(iface);
}

void
Design::setPipelineOutputBytes(int64_t bytes)
{
    if (bytes < 0)
        fatal(Rule::E016, "Design %s: negative pipeline output bytes",
              params_.name.c_str());
    outputBytesOverride_ = bytes;
}

EnergyReport
Design::simulate(CycleSimStats *sim_stats) const
{
    // The staged evaluation pipeline run end to end (see
    // core/pipeline.h for the stage decomposition).
    EvalPipeline pipeline;
    EnergyReport report = pipeline.runAll(*this);
    if (sim_stats != nullptr)
        *sim_stats = pipeline.simStats();
    return report;
}

} // namespace camj

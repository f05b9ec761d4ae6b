#include "core/design.h"

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

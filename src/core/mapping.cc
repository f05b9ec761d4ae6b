#include "core/mapping.h"

#include "common/logging.h"

namespace camj
{

void
Mapping::map(const std::string &stage, const std::string &hw_unit)
{
    if (stage.empty() || hw_unit.empty())
        fatal(Rule::E003, "Mapping: empty stage or hardware name");
    if (stageToHw_.count(stage))
        fatal(Rule::E008, "Mapping: stage '%s' already mapped to '%s'",
              stage.c_str(), stageToHw_.at(stage).c_str());
    stageToHw_[stage] = hw_unit;
    order_.push_back(stage);
}

bool
Mapping::isMapped(const std::string &stage) const
{
    return stageToHw_.count(stage) > 0;
}

const std::string &
Mapping::hwUnitOf(const std::string &stage) const
{
    auto it = stageToHw_.find(stage);
    if (it == stageToHw_.end())
        fatal(Rule::E008, "Mapping: stage '%s' is not mapped", stage.c_str());
    return it->second;
}

std::vector<std::string>
Mapping::stagesOn(const std::string &hw_unit) const
{
    std::vector<std::string> result;
    for (const auto &stage : order_) {
        if (stageToHw_.at(stage) == hw_unit)
            result.push_back(stage);
    }
    return result;
}

} // namespace camj

#include "core/area.h"

#include <algorithm>

#include "common/logging.h"

namespace camj
{

void
AreaSummary::add(Layer layer, Area area)
{
    if (area < 0.0)
        fatal(Rule::E017, "AreaSummary: negative area");
    switch (layer) {
      case Layer::Sensor:
        sensorLayer += area;
        break;
      case Layer::Compute:
        computeLayer += area;
        break;
      case Layer::Dram:
        dramLayer += area;
        break;
      case Layer::OffChip:
        offChip += area;
        break;
    }
}

Area
AreaSummary::footprint() const
{
    if (stacked())
        return std::max({sensorLayer, computeLayer, dramLayer});
    return sensorLayer;
}

} // namespace camj

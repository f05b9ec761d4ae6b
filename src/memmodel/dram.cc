#include "memmodel/dram.h"

#include <cmath>

#include "common/logging.h"

namespace camj
{

DramEnergy
dramEnergyPerFrame(const DramTraffic &traffic, Time frame_time,
                   const DramParams &params)
{
    if (traffic.readBytes < 0 || traffic.writeBytes < 0)
        fatal(Rule::E013, "dramEnergyPerFrame: negative byte counts");
    if (traffic.rowHitRate < 0.0 || traffic.rowHitRate > 1.0)
        fatal(Rule::E013, "dramEnergyPerFrame: row hit rate %g outside [0, 1]",
              traffic.rowHitRate);
    if (traffic.activeFraction < 0.0 || traffic.activeFraction > 1.0)
        fatal(Rule::E013,
              "dramEnergyPerFrame: active fraction %g outside [0, 1]",
              traffic.activeFraction);
    if (frame_time <= 0.0)
        fatal(Rule::E013, "dramEnergyPerFrame: non-positive frame time");
    if (params.burstBytes <= 0 || params.rowBytes <= 0)
        fatal(Rule::E013, "dramEnergyPerFrame: invalid device geometry");

    const double read_bursts =
        std::ceil(static_cast<double>(traffic.readBytes) /
                  params.burstBytes);
    const double write_bursts =
        std::ceil(static_cast<double>(traffic.writeBytes) /
                  params.burstBytes);

    // Every row miss costs an activate/precharge pair.
    const double total_bursts = read_bursts + write_bursts;
    const double activates = total_bursts * (1.0 - traffic.rowHitRate);

    DramEnergy e;
    e.activatePart = activates * params.activateEnergy;
    e.burstPart = read_bursts * params.readBurstEnergy +
                  write_bursts * params.writeBurstEnergy;
    e.backgroundPart =
        frame_time * (traffic.activeFraction * params.backgroundPower +
                      (1.0 - traffic.activeFraction) *
                          params.selfRefreshPower);
    e.total = e.activatePart + e.burstPart + e.backgroundPart;
    return e;
}

} // namespace camj

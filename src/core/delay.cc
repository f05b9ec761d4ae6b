#include "core/delay.h"

#include "common/logging.h"

namespace camj
{

std::optional<ConfigError>
estimateDelaysInto(Time frame_time, Time digital_latency,
                   int num_analog_arrays, DelayEstimate &out)
{
    if (frame_time <= 0.0)
        fatal(Rule::E001, "estimateDelays: frame time must be positive");
    if (digital_latency < 0.0)
        fatal(Rule::E017, "estimateDelays: negative digital latency");
    if (num_analog_arrays < 1)
        fatal(Rule::E009, "estimateDelays: need at least one analog array");

    out = DelayEstimate{};
    out.frameTime = frame_time;
    out.digitalLatency = digital_latency;
    out.numSlots = num_analog_arrays + 1;

    Time analog_budget = frame_time - digital_latency;
    if (analog_budget <= 0.0) {
        return configError(
            Rule::D002,
            "estimateDelays: digital latency %s exceeds the frame "
            "time %s; the pipeline would stall — redesign the "
            "digital units or lower the FPS target",
            formatTime(digital_latency).c_str(),
            formatTime(frame_time).c_str());
    }
    out.analogUnitTime = analog_budget / static_cast<double>(out.numSlots);
    return std::nullopt;
}

} // namespace camj

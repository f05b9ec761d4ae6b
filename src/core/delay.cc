#include "core/delay.h"

#include "common/logging.h"

namespace camj
{

DelayEstimate
estimateDelays(Time frame_time, Time digital_latency,
               int num_analog_arrays)
{
    if (frame_time <= 0.0)
        fatal(Rule::E001, "estimateDelays: frame time must be positive");
    if (digital_latency < 0.0)
        fatal(Rule::E017, "estimateDelays: negative digital latency");
    if (num_analog_arrays < 1)
        fatal(Rule::E009, "estimateDelays: need at least one analog array");

    DelayEstimate d;
    d.frameTime = frame_time;
    d.digitalLatency = digital_latency;
    d.numSlots = num_analog_arrays + 1;

    Time analog_budget = frame_time - digital_latency;
    if (analog_budget <= 0.0) {
        fatal(Rule::D002,
              "estimateDelays: digital latency %s exceeds the frame "
              "time %s; the pipeline would stall — redesign the "
              "digital units or lower the FPS target",
              formatTime(digital_latency).c_str(),
              formatTime(frame_time).c_str());
    }
    d.analogUnitTime = analog_budget / static_cast<double>(d.numSlots);
    return d;
}

} // namespace camj

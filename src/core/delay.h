/**
 * @file
 * Delay estimation (Sec. 4.1). The CIS pipeline is designed to never
 * stall, so every analog unit gets the same time slot T_A, derived
 * from the frame time and the simulated digital latency:
 *
 *   N_slots * T_A + T_D = T_FR     =>   T_A = (T_FR - T_D) / N_slots
 *
 * N_slots is the number of analog arrays on the path plus one: the
 * rolling readout of the pixel array overlaps exposure by one slot
 * (this reproduces the paper's Fig. 6, where two analog units yield
 * "3 x T_A + T_D = T_FR").
 */

#ifndef CAMJ_CORE_DELAY_H
#define CAMJ_CORE_DELAY_H

#include <optional>

#include "common/logging.h"
#include "common/units.h"

namespace camj
{

/** Result of the delay estimation. */
struct DelayEstimate
{
    /** T_FR = 1 / FPS. */
    Time frameTime = 0.0;
    /** T_D: simulated digital-domain latency. */
    Time digitalLatency = 0.0;
    /** T_A: per-analog-unit time slot. */
    Time analogUnitTime = 0.0;
    /** Number of analog slots (arrays + 1). */
    int numSlots = 0;
};

/**
 * Derive per-analog-unit time from the frame budget into @p out. The
 * design cannot meet its FPS target when the digital latency consumes
 * the frame budget; that verdict (rule CAMJ-D002) is returned rather
 * than thrown, so a caller may report it, and @p out's analogUnitTime
 * is then unset. nullopt otherwise.
 *
 * @param frame_time T_FR; must be positive.
 * @param digital_latency T_D; must be non-negative.
 * @param num_analog_arrays Analog arrays on the pipeline path (>= 1).
 * @throws ConfigError on those argument errors.
 */
std::optional<ConfigError> estimateDelaysInto(Time frame_time,
                                              Time digital_latency,
                                              int num_analog_arrays,
                                              DelayEstimate &out);

} // namespace camj

#endif // CAMJ_CORE_DELAY_H

/**
 * @file
 * Rhythmic Pixel Regions (Kodukula et al., ASPLOS'21) as a CamJ
 * workload: an ROI-based image encoder in front of the MIPI link
 * (the paper's Fig. 8a). The hardware variants explored in Fig. 9a
 * and Table 3 differ only in where the Compare & Sample accelerator
 * and its buffers live and in which process node they use.
 *
 * The study is defined as a DesignSpec generator (rhythmicSpec), so
 * every variant is a serializable document that can be saved, swept,
 * and diffed; buildRhythmic() is a thin materializing wrapper kept
 * for callers that want the materialized Design directly.
 */

#ifndef CAMJ_USECASES_RHYTHMIC_H
#define CAMJ_USECASES_RHYTHMIC_H

#include <memory>
#include <string>

#include "core/design.h"
#include "spec/spec.h"

namespace camj
{

/** Placement/stacking variants of Sec. 6.1-6.2. */
enum class SensorVariant
{
    /** Everything after the ADC runs on the host SoC. */
    TwoDOff,
    /** Single-die CIS executes the full pipeline. */
    TwoDIn,
    /** Two-die stack: pixel die + advanced-node compute die. */
    ThreeDIn,
    /** ThreeDIn with STT-RAM replacing the SRAM buffers. */
    ThreeDInStt,
};

/** Human-readable variant name ("2D-In", ...). */
const char *sensorVariantName(SensorVariant variant);

/**
 * The Rhythmic Pixel Regions design as a serializable spec.
 *
 * @param variant Placement variant. ThreeDInStt is rejected: the
 *        workload's 2 KB metadata buffer is below the STT-RAM
 *        model's 4 KB minimum, mirroring the paper's missing
 *        Rhythmic STT-RAM column.
 * @param sensor_nm CIS process node (the "H" node; 130 or 65 in the
 *        paper).
 * @param fps Frame-rate target; defaults to the paper's 30 fps.
 * @throws ConfigError for ThreeDInStt or invalid nodes.
 */
spec::DesignSpec rhythmicSpec(SensorVariant variant, int sensor_nm,
                              double fps = 0.0);

/** Materialize rhythmicSpec() onto the Design engine. */
std::shared_ptr<Design> buildRhythmic(SensorVariant variant,
                                      int sensor_nm,
                                      double fps = 0.0);

} // namespace camj

#endif // CAMJ_USECASES_RHYTHMIC_H

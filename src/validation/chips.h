/**
 * @file
 * The nine validation chip configurations of Table 2 / Fig. 7,
 * expressed as CamJ designs. Every chip is reconstructed from the
 * parameters the paper tabulates (process node, stacking, pixel type,
 * analog/digital PE style and memory sizes) plus educated-guess
 * workload proxies where the paper gives none (see DESIGN.md Sec. 3).
 *
 * Each chip is defined as a DesignSpec generator (isscc17Spec(), ...)
 * returning a fully serializable ChipSpec; the buildXxx() functions
 * are thin wrappers that materialize the spec onto the Design engine
 * for callers that want the materialized object.
 */

#ifndef CAMJ_VALIDATION_CHIPS_H
#define CAMJ_VALIDATION_CHIPS_H

#include <memory>
#include <string>
#include <vector>

#include "core/design.h"
#include "spec/spec.h"

namespace camj
{

/** One component-group row of a Fig. 7 per-chip breakdown. */
struct ChipGroup
{
    /** Display label ("Pixel", "ADC", "Analog PE", ...). */
    std::string label;
    /** Hardware unit names aggregated under the label. */
    std::vector<std::string> unitNames;
};

/** A validation chip as data: spec plus reporting metadata. */
struct ChipSpec
{
    /** Short id as used in Table 2 ("ISSCC'17"). */
    std::string id;
    /** One-line description. */
    std::string description;
    /** Pixel count used for the energy-per-pixel figure of merit. */
    int64_t pixels = 0;
    /** The serializable design document. */
    spec::DesignSpec design;
    /** Fig. 7 breakdown grouping. */
    std::vector<ChipGroup> groups;
};

/** A validation chip: materialized design plus reporting metadata. */
struct ChipInfo
{
    std::string id;
    std::string description;
    int64_t pixels = 0;
    /** The full CamJ design. */
    std::shared_ptr<Design> design;
    /** Fig. 7 breakdown grouping. */
    std::vector<ChipGroup> groups;
};

/** Materialize a chip spec onto the Design engine. */
ChipInfo materializeChip(const ChipSpec &chip);

/** ISSCC'17: 65 nm CNN face-recognition CIS, 3T APS, analog
 *  average/add, 160 KB SRAM, 4x4x64 MAC array. */
ChipSpec isscc17Spec();
ChipInfo buildIsscc17();

/** JSSC'19: 130 nm data-compressive log-gradient QVGA sensor,
 *  4T APS, column logarithmic subtraction, 2.75 b readout. */
ChipSpec jssc19Spec();
ChipInfo buildJssc19();

/** Sensors'20: 110 nm always-on analog CNN sensor, 4T APS, column
 *  MAC + max-pool. */
ChipSpec sensors20Spec();
ChipInfo buildSensors20();

/** ISSCC'21: Sony IMX500-class 65/22 nm stacked 12.3 Mpx CIS with
 *  on-chip DNN processor and 8 MB memory. */
ChipSpec isscc21Spec();
ChipInfo buildIsscc21();

/** JSSC'21-I: 180 nm 0.5 V computational CIS, PWM pixels,
 *  time/current-domain column MAC. */
ChipSpec jssc21ISpec();
ChipInfo buildJssc21I();

/** JSSC'21-II: 110 nm 51 pJ/px compressive CIS, 4T APS,
 *  column-parallel charge-domain MAC. */
ChipSpec jssc21IISpec();
ChipInfo buildJssc21II();

/** VLSI'21: 65/28 nm stacked 2 Mpx global-shutter sensor with
 *  pixel-level ADC (DPS) and 6 MB in-pixel/frame memory. */
ChipSpec vlsi21Spec();
ChipInfo buildVlsi21();

/** ISSCC'22: 180 nm 0.8 V intelligent vision sensor, PWM pixels,
 *  mixed-mode tiny CNN, 256 B digital memory, single MAC PE. */
ChipSpec isscc22Spec();
ChipInfo buildIsscc22();

/** TCAS-I'22: 180 nm Senputing chip, 3T APS, current-domain
 *  multiply/add fused into pixel and chip levels. */
ChipSpec tcas22Spec();
ChipInfo buildTcas22();

/** All nine chip specs in Table 2 order. */
std::vector<ChipSpec> allChipSpecs();

/** All nine chips in Table 2 order, materialized. */
std::vector<ChipInfo> buildAllChips();

} // namespace camj

#endif // CAMJ_VALIDATION_CHIPS_H

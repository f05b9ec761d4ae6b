/**
 * @file
 * The paper-study registry: every Sec. 5-6 design point of the paper
 * (all Rhythmic Pixel Regions variants, all Ed-Gaze variants, the
 * nine Table 2 validation chips) plus the canonical sample specs, as
 * one flat list of serializable DesignSpecs.
 *
 * This is the single source the golden-spec regression harness
 * (tests/golden), the property suites, the sweep tests, and the
 * perf_simulator bench iterate over — adding a study here enrolls it
 * in all of them at once.
 */

#ifndef CAMJ_USECASES_STUDIES_H
#define CAMJ_USECASES_STUDIES_H

#include <string>
#include <vector>

#include "spec/source.h"
#include "spec/spec.h"

namespace camj
{

/** One paper study as data. */
struct PaperStudy
{
    /** Stable key (= spec.name), used as the golden-file stem. */
    std::string key;
    spec::DesignSpec spec;
};

/**
 * Every paper study: 6 Rhythmic variants (2D-Off / 2D-In / 3D-In at
 * 130 and 65 nm), 10 Ed-Gaze variants (all five placements at both
 * nodes), the 9 validation chips, and 2 sample detector specs —
 * 27 serializable design points in deterministic order.
 */
std::vector<PaperStudy> allPaperStudies();

/** The bare specs of allPaperStudies(), ready for a SweepEngine
 *  batch. */
std::vector<spec::DesignSpec> allPaperStudySpecs();

/**
 * The registry as a lazy source for SweepEngine::runStream(): study i
 * is generated when a worker asks for it, so the whole registry never
 * has to exist as a vector. (Each point builds one study through its
 * spec generator.)
 */
spec::GeneratorSpecSource paperStudySource();

} // namespace camj

#endif // CAMJ_USECASES_STUDIES_H

#include "usecases/studies.h"

#include "spec/samples.h"
#include "usecases/edgaze.h"
#include "usecases/rhythmic.h"
#include "validation/chips.h"

namespace camj
{

std::vector<PaperStudy>
allPaperStudies()
{
    std::vector<PaperStudy> studies;
    auto add = [&](spec::DesignSpec spec) {
        studies.push_back({spec.name, std::move(spec)});
    };

    // Fig. 9a / Table 3: Rhythmic Pixel Regions placements. The
    // 3D-In-STT cell is absent here exactly as in the paper (the
    // metadata buffer is below the STT-RAM minimum).
    for (int nm : {130, 65}) {
        for (SensorVariant v : {SensorVariant::TwoDOff,
                                SensorVariant::TwoDIn,
                                SensorVariant::ThreeDIn})
            add(rhythmicSpec(v, nm));
    }

    // Fig. 9b / 10-13 / Table 3: every Ed-Gaze variant.
    for (int nm : {130, 65}) {
        for (EdgazeVariant v : {EdgazeVariant::TwoDOff,
                                EdgazeVariant::TwoDIn,
                                EdgazeVariant::ThreeDIn,
                                EdgazeVariant::ThreeDInStt,
                                EdgazeVariant::TwoDInMixed})
            add(edgazeSpec(v, nm));
    }

    // Table 2 / Fig. 7: the nine validation chips.
    for (ChipSpec &chip : allChipSpecs())
        add(std::move(chip.design));

    // The canonical sample detector at both paper CIS nodes.
    add(spec::sampleDetectorSpec(30.0, 130));
    add(spec::sampleDetectorSpec(30.0, 65));

    return studies;
}

std::vector<spec::DesignSpec>
allPaperStudySpecs()
{
    std::vector<spec::DesignSpec> specs;
    for (PaperStudy &s : allPaperStudies())
        specs.push_back(std::move(s.spec));
    return specs;
}

spec::GeneratorSpecSource
paperStudySource()
{
    // The same 27 points in the same order as allPaperStudies(), but
    // each point runs exactly one spec generator. The index layout:
    // [0,6) rhythmic, [6,16) edgaze, [16,25) chips, [25,27) samples.
    static constexpr SensorVariant kRhythmic[] = {
        SensorVariant::TwoDOff, SensorVariant::TwoDIn,
        SensorVariant::ThreeDIn};
    static constexpr EdgazeVariant kEdgaze[] = {
        EdgazeVariant::TwoDOff, EdgazeVariant::TwoDIn,
        EdgazeVariant::ThreeDIn, EdgazeVariant::ThreeDInStt,
        EdgazeVariant::TwoDInMixed};
    static constexpr ChipSpec (*kChips[])() = {
        isscc17Spec, jssc19Spec, sensors20Spec, isscc21Spec,
        jssc21ISpec, jssc21IISpec, vlsi21Spec, isscc22Spec,
        tcas22Spec};
    static constexpr size_t kTotal = 27;

    return spec::GeneratorSpecSource(
        [](size_t i) -> std::optional<spec::DesignSpec> {
            if (i < 6)
                return rhythmicSpec(kRhythmic[i % 3],
                                    i < 3 ? 130 : 65);
            if (i < 16) {
                const size_t j = i - 6;
                return edgazeSpec(kEdgaze[j % 5], j < 5 ? 130 : 65);
            }
            if (i < 25)
                return kChips[i - 16]().design;
            return spec::sampleDetectorSpec(30.0, i == 25 ? 130 : 65);
        },
        kTotal);
}

} // namespace camj

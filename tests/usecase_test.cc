/**
 * @file
 * Tests asserting the Sec. 6 findings on the use-case designs — the
 * experiment shapes of Fig. 9a/9b, Table 3, and Fig. 11-13. These are
 * the headline results of the paper; each finding is one test.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"
#include "spec/spec.h"
#include "usecases/edgaze.h"
#include "usecases/explorer.h"
#include "usecases/params.h"
#include "usecases/rhythmic.h"

namespace camj
{
namespace
{

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

double
totalUJ(const EnergyReport &r)
{
    return r.total() / units::uJ;
}

// All findings are asserted through the serializable spec path — the
// same documents the golden harness pins down.
EnergyReport
rhythmic(SensorVariant v, int nm)
{
    return rhythmicSpec(v, nm).materialize().simulate();
}

EnergyReport
edgaze(EdgazeVariant v, int nm)
{
    return edgazeSpec(v, nm).materialize().simulate();
}

// ------------------------------------------------------------- Fig. 9a

TEST(Fig9a, InSensorSavesForCommunicationDominatedWorkload)
{
    // Rhythmic is communication-dominated: 2D-In beats 2D-Off at both
    // CIS nodes (paper: 14.5% at 130 nm, 33.4% at 65 nm).
    for (int nm : {130, 65}) {
        double off = totalUJ(rhythmic(SensorVariant::TwoDOff, nm));
        double in = totalUJ(rhythmic(SensorVariant::TwoDIn, nm));
        double saving = (off - in) / off;
        EXPECT_GT(saving, 0.08) << nm;
        EXPECT_LT(saving, 0.45) << nm;
    }
}

TEST(Fig9a, SavingGrowsWithNewerCisNode)
{
    // The 65 nm CIS narrows the gap to the SoC node: bigger saving.
    double s130 =
        1.0 - totalUJ(rhythmic(SensorVariant::TwoDIn, 130)) /
                  totalUJ(rhythmic(SensorVariant::TwoDOff, 130));
    double s65 =
        1.0 - totalUJ(rhythmic(SensorVariant::TwoDIn, 65)) /
                  totalUJ(rhythmic(SensorVariant::TwoDOff, 65));
    EXPECT_GT(s65, s130);
}

TEST(Fig9a, MipiDominatesOffSensor)
{
    EnergyReport r = rhythmic(SensorVariant::TwoDOff, 130);
    EXPECT_GT(r.category(EnergyCategory::Mipi), 0.5 * r.total());
}

TEST(Fig9a, RoiHalvesMipiVolume)
{
    EnergyReport off = rhythmic(SensorVariant::TwoDOff, 130);
    EnergyReport in = rhythmic(SensorVariant::TwoDIn, 130);
    EXPECT_NEAR(static_cast<double>(in.mipiBytes) /
                    static_cast<double>(off.mipiBytes),
                usecase::rhythmicRoiFraction, 0.01);
}

TEST(Fig9a, StackingBeatsTwoDIn)
{
    // 3D-In uses the advanced node for compute without giving up the
    // communication saving (paper: 15.8% average over 2D-In).
    for (int nm : {130, 65}) {
        double in2d = totalUJ(rhythmic(SensorVariant::TwoDIn, nm));
        double in3d = totalUJ(rhythmic(SensorVariant::ThreeDIn, nm));
        EXPECT_LT(in3d, in2d) << nm;
    }
}

TEST(Fig9a, InSensorComputePaysTheOldNodeTax)
{
    EnergyReport in130 = rhythmic(SensorVariant::TwoDIn, 130);
    EnergyReport off = rhythmic(SensorVariant::TwoDOff, 130);
    EXPECT_GT(in130.category(EnergyCategory::CompD),
              3.0 * off.category(EnergyCategory::CompD));
}

TEST(Fig9a, SttVariantRejectedLikeThePaper)
{
    // The 2 KB metadata buffer is below the STT-RAM minimum; the
    // paper's Table lacks the same cell. Both the spec generator and
    // the materializing wrapper refuse.
    EXPECT_THROW(rhythmicSpec(SensorVariant::ThreeDInStt, 130),
                 ConfigError);
    EXPECT_THROW(buildRhythmic(SensorVariant::ThreeDInStt, 130),
                 ConfigError);
}

// ------------------------------------------------------------- Fig. 9b

TEST(Fig9b, InSensorLosesForComputeDominatedWorkload)
{
    // Finding 1: Ed-Gaze is compute-dominated; moving it in-sensor
    // costs more energy at both nodes.
    for (int nm : {130, 65}) {
        double off = totalUJ(edgaze(EdgazeVariant::TwoDOff, nm));
        double in = totalUJ(edgaze(EdgazeVariant::TwoDIn, nm));
        EXPECT_GT(in, 1.15 * off) << nm;
    }
}

TEST(Fig9b, CommunicationIsLightOffSensor)
{
    EnergyReport off = edgaze(EdgazeVariant::TwoDOff, 130);
    // Paper: 15% of total; ours stays a clear minority share.
    double share = off.category(EnergyCategory::Mipi) / off.total();
    EXPECT_LT(share, 0.45);
    EXPECT_GT(share, 0.05);
}

TEST(Fig9b, LeakageFlips65nmAbove130nm)
{
    // The counterintuitive result: 65 nm in-sensor costs MORE than
    // 130 nm because the frame buffer cannot be power-gated and the
    // 65 nm node leaks heavily.
    double in130 = totalUJ(edgaze(EdgazeVariant::TwoDIn, 130));
    double in65 = totalUJ(edgaze(EdgazeVariant::TwoDIn, 65));
    EXPECT_GT(in65, 1.2 * in130);
}

TEST(Fig9b, LeakageFlipComesFromMemory)
{
    EnergyReport in130 = edgaze(EdgazeVariant::TwoDIn, 130);
    EnergyReport in65 = edgaze(EdgazeVariant::TwoDIn, 65);
    EXPECT_GT(in65.category(EnergyCategory::MemD),
              2.0 * in130.category(EnergyCategory::MemD));
    // while dynamic compute got cheaper:
    EXPECT_LT(in65.category(EnergyCategory::CompD),
              in130.category(EnergyCategory::CompD));
}

TEST(Fig9b, StackingSavesSubstantially)
{
    // Finding 2 (paper: 38.5% average).
    for (int nm : {130, 65}) {
        double in2d = totalUJ(edgaze(EdgazeVariant::TwoDIn, nm));
        double in3d = totalUJ(edgaze(EdgazeVariant::ThreeDIn, nm));
        double saving = (in2d - in3d) / in2d;
        EXPECT_GT(saving, 0.30) << nm;
        EXPECT_LT(saving, 0.75) << nm;
    }
}

TEST(Fig9b, MemoryDominatesThreeDIn)
{
    // "the memory energy still dominates in 3D-In, because the frame
    // buffer cannot be power-gated".
    EnergyReport r = edgaze(EdgazeVariant::ThreeDIn, 130);
    EXPECT_GT(r.category(EnergyCategory::MemD), 0.4 * r.total());
}

TEST(Fig9b, SttRemovesTheLeakage)
{
    // Paper: 3D-In-STT reduces the total by 69.1%/68.5% vs 3D-In.
    for (int nm : {130, 65}) {
        double in3d = totalUJ(edgaze(EdgazeVariant::ThreeDIn, nm));
        double stt = totalUJ(edgaze(EdgazeVariant::ThreeDInStt, nm));
        double saving = (in3d - stt) / in3d;
        EXPECT_GT(saving, 0.45) << nm;
        EXPECT_LT(saving, 0.80) << nm;
    }
}

TEST(Fig9b, SttSavingIsInMemoryCategory)
{
    EnergyReport sram = edgaze(EdgazeVariant::ThreeDIn, 65);
    EnergyReport stt = edgaze(EdgazeVariant::ThreeDInStt, 65);
    EXPECT_LT(stt.category(EnergyCategory::MemD),
              0.2 * sram.category(EnergyCategory::MemD));
    // Non-memory categories unchanged.
    EXPECT_NEAR(stt.category(EnergyCategory::Sen),
                sram.category(EnergyCategory::Sen),
                0.01 * sram.category(EnergyCategory::Sen));
}

TEST(Fig9b, DnnMacCountMatchesPaper)
{
    // Paper: ~5.76e7 MACs per frame; ours within 5%.
    EXPECT_NEAR(static_cast<double>(edgazeDnnMacs()), 5.76e7,
                0.05 * 5.76e7);
}

TEST(Fig9b, TsvCostIsInsignificant)
{
    EnergyReport r = edgaze(EdgazeVariant::ThreeDIn, 130);
    EXPECT_LT(r.category(EnergyCategory::Tsv), 0.02 * r.total());
}

// ------------------------------------------------------------- Table 3

TEST(Table3, RhythmicDensityVariesLittle)
{
    // "no significant difference among the three variants" — within
    // ~3x of each other (communication-dominated power).
    for (int nm : {130, 65}) {
        double off =
            powerDensityMwPerMm2(rhythmic(SensorVariant::TwoDOff, nm));
        double in2d =
            powerDensityMwPerMm2(rhythmic(SensorVariant::TwoDIn, nm));
        double in3d =
            powerDensityMwPerMm2(rhythmic(SensorVariant::ThreeDIn, nm));
        double lo = std::min({off, in2d, in3d});
        double hi = std::max({off, in2d, in3d});
        EXPECT_LT(hi / lo, 3.5) << nm;
    }
}

TEST(Table3, EdgazeStackingRaisesDensityAt130)
{
    // 3D-In more than doubles the 2D-Off density (paper: 0.19->0.78).
    double off =
        powerDensityMwPerMm2(edgaze(EdgazeVariant::TwoDOff, 130));
    double in3d =
        powerDensityMwPerMm2(edgaze(EdgazeVariant::ThreeDIn, 130));
    EXPECT_GT(in3d, 2.0 * off);
}

TEST(Table3, EdgazeLeakageMakes65nm2DInDensest)
{
    double in2d65 =
        powerDensityMwPerMm2(edgaze(EdgazeVariant::TwoDIn, 65));
    double in3d65 =
        powerDensityMwPerMm2(edgaze(EdgazeVariant::ThreeDIn, 65));
    double off65 =
        powerDensityMwPerMm2(edgaze(EdgazeVariant::TwoDOff, 65));
    EXPECT_GT(in2d65, in3d65);
    EXPECT_GT(in2d65, off65);
}

TEST(Table3, DensitiesAreOrdersBelowCpuClass)
{
    // Paper: three to four orders of magnitude below CPU (1 W/mm^2 =
    // 1000 mW/mm^2) and GPU (300 mW/mm^2) densities.
    for (int nm : {130, 65}) {
        for (auto v : {EdgazeVariant::TwoDOff, EdgazeVariant::TwoDIn,
                       EdgazeVariant::ThreeDIn}) {
            EXPECT_LT(powerDensityMwPerMm2(edgaze(v, nm)), 30.0);
        }
    }
}

// --------------------------------------------------------- Fig. 11-13

TEST(Fig11, MixedSignalSavesEnergy)
{
    // Paper: 38.8% (130 nm) and 77.1% (65 nm) reduction; the shape
    // requirement is a clear saving that grows at 65 nm.
    double s130 =
        1.0 - totalUJ(edgaze(EdgazeVariant::TwoDInMixed, 130)) /
                  totalUJ(edgaze(EdgazeVariant::TwoDIn, 130));
    double s65 =
        1.0 - totalUJ(edgaze(EdgazeVariant::TwoDInMixed, 65)) /
                  totalUJ(edgaze(EdgazeVariant::TwoDIn, 65));
    EXPECT_GT(s130, 0.05);
    EXPECT_GT(s65, 0.35);
    EXPECT_GT(s65, s130);
}

TEST(Fig11, SavingsComeFromSenAndMemory)
{
    // Removing the ADCs (lower SEN) and replacing SRAM with analog
    // buffers (lower MEM-D) are the two sources the paper names.
    for (int nm : {130, 65}) {
        EnergyReport digital = edgaze(EdgazeVariant::TwoDIn, nm);
        EnergyReport mixed = edgaze(EdgazeVariant::TwoDInMixed, nm);
        EXPECT_LT(mixed.category(EnergyCategory::Sen),
                  0.2 * digital.category(EnergyCategory::Sen))
            << nm;
        EXPECT_LT(mixed.category(EnergyCategory::MemD),
                  digital.category(EnergyCategory::MemD))
            << nm;
        EXPECT_GT(mixed.category(EnergyCategory::MemA), 0.0) << nm;
    }
}

TEST(Fig12, DnnStageDominatesAfterMixing)
{
    // S3 (DNN array + DNN buffer) dominates the mixed design.
    EnergyReport mixed = edgaze(EdgazeVariant::TwoDInMixed, 65);
    double s3 = mixed.energyOf("DnnArray") + mixed.energyOf("DnnBuffer");
    EXPECT_GT(s3, 0.6 * mixed.total());
}

TEST(Fig13, FirstTwoStagesMemoryDropsComputeRises)
{
    // Finding 3: analog S1/S2 memory energy collapses while compute
    // energy increases (8-bit-precision opamps are expensive).
    for (int nm : {130, 65}) {
        EnergyReport digital = edgaze(EdgazeVariant::TwoDIn, nm);
        EnergyReport mixed = edgaze(EdgazeVariant::TwoDInMixed, nm);

        double dig_mem_s12 = digital.energyOf("FrameBuffer") +
                             digital.energyOf("LineBuffer") +
                             digital.energyOf("PixFifo");
        double mix_mem_s12 = mixed.energyOf("AnalogFrameBuffer");
        EXPECT_LT(mix_mem_s12, 0.5 * dig_mem_s12) << nm;

        double dig_comp_s12 = digital.energyOf("DownsampleUnit") +
                              digital.energyOf("SubtractUnit");
        double mix_comp_s12 = mixed.energyOf("AnalogPeArray");
        EXPECT_GT(mix_comp_s12, dig_comp_s12) << nm;
    }
}

// --------------------------------------------------------- invariants

TEST(Usecases, VariantNamesAreDistinct)
{
    EXPECT_STREQ(sensorVariantName(SensorVariant::TwoDOff), "2D-Off");
    EXPECT_STREQ(edgazeVariantName(EdgazeVariant::TwoDInMixed),
                 "2D-In-Mixed");
}

TEST(Usecases, DesignsAreDeterministic)
{
    double a = totalUJ(edgaze(EdgazeVariant::ThreeDIn, 65));
    double b = totalUJ(edgaze(EdgazeVariant::ThreeDIn, 65));
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(Usecases, BuildWrappersMatchTheSpecPath)
{
    // buildRhythmic/buildEdgaze are thin materialize() wrappers: bit-
    // identical to simulating the spec directly.
    EnergyReport via_spec =
        rhythmicSpec(SensorVariant::ThreeDIn, 65).materialize()
            .simulate();
    EnergyReport via_wrapper =
        buildRhythmic(SensorVariant::ThreeDIn, 65)->simulate();
    EXPECT_EQ(via_spec.total(), via_wrapper.total());

    EnergyReport e_spec =
        edgazeSpec(EdgazeVariant::TwoDInMixed, 130).materialize()
            .simulate();
    EnergyReport e_wrapper =
        buildEdgaze(EdgazeVariant::TwoDInMixed, 130)->simulate();
    EXPECT_EQ(e_spec.total(), e_wrapper.total());
}

TEST(Usecases, SpecsSerializeLosslessly)
{
    // A usecase spec shipped as JSON simulates identically after the
    // round trip — the property that makes the studies shippable.
    for (int nm : {130, 65}) {
        spec::DesignSpec s = edgazeSpec(EdgazeVariant::ThreeDInStt, nm);
        EnergyReport direct = s.materialize().simulate();
        EnergyReport loaded = spec::fromJson(spec::toJson(s))
                                  .materialize()
                                  .simulate();
        EXPECT_EQ(direct.total(), loaded.total()) << nm;
    }
}

TEST(Usecases, SensorSideIsVariantInvariant)
{
    // The analog front end does not change across placements.
    EnergyReport off = edgaze(EdgazeVariant::TwoDOff, 130);
    EnergyReport in3d = edgaze(EdgazeVariant::ThreeDIn, 130);
    EXPECT_NEAR(off.category(EnergyCategory::Sen),
                in3d.category(EnergyCategory::Sen),
                0.01 * off.category(EnergyCategory::Sen));
}

TEST(Usecases, RhythmicOpsBudgetMatchesPaper)
{
    // ~7.4e6 arithmetic ops per frame.
    const spec::DesignSpec s = rhythmicSpec(SensorVariant::TwoDIn, 130);
    const auto cs = std::find_if(
        s.stages.begin(), s.stages.end(), [](const spec::StageSpec &st) {
            return st.params.name == "CompareSample";
        });
    ASSERT_NE(cs, s.stages.end());
    EXPECT_NEAR(static_cast<double>(Stage(cs->params).opsPerFrame()),
                7.4e6, 0.05 * 7.4e6);
}

} // namespace
} // namespace camj

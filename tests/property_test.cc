/**
 * @file
 * Cross-module property suites: invariants that must hold across
 * parameter grids rather than at single points — affine invariance
 * of the statistics, factory-wide component sanity, design-level
 * conservation laws, and the three-layer stacking extension.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analog/acomponent.h"
#include "analog/adc_fom.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/units.h"
#include "core/area.h"
#include "core/design.h"
#include "memmodel/dram.h"
#include "spec/builder.h"
#include "study_fixture.h"
#include "tech/scaling.h"
#include "usecases/edgaze.h"
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

// ------------------------------------------------- statistics properties

class StatsAffine
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(StatsAffine, PearsonInvariantUnderAffineMaps)
{
    auto [scale, offset] = GetParam();
    std::vector<double> x = {1.0, 4.0, 2.0, 8.0, 5.0, 7.0};
    std::vector<double> y = {2.0, 5.0, 1.0, 9.0, 6.0, 6.5};
    double base = pearson(x, y);

    std::vector<double> y2;
    for (double v : y)
        y2.push_back(scale * v + offset);
    EXPECT_NEAR(pearson(x, y2), base, 1e-9)
        << "scale=" << scale << " offset=" << offset;
}

TEST_P(StatsAffine, MapeInvariantUnderCommonScaling)
{
    auto [scale, offset] = GetParam();
    (void)offset; // scaling only: MAPE is a relative measure
    std::vector<double> est = {9.0, 11.0, 10.5};
    std::vector<double> ref = {10.0, 10.0, 10.0};
    double base = mape(est, ref);

    std::vector<double> est2, ref2;
    for (size_t i = 0; i < est.size(); ++i) {
        est2.push_back(est[i] * scale);
        ref2.push_back(ref[i] * scale);
    }
    EXPECT_NEAR(mape(est2, ref2), base, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StatsAffine,
    ::testing::Combine(::testing::Values(0.5, 2.0, 100.0),
                       ::testing::Values(0.0, 3.0, -7.0)));

// --------------------------------------------- component-factory sweep

struct FactoryCase
{
    const char *name;
    AComponent (*make)();
};

AComponent makeAps4TDefault() { return makeAps4T(); }
AComponent makeAps3TDefault() { return makeAps3T(); }
AComponent makeDps10() { return makeDps(10); }
AComponent makePwmDefault() { return makePwmPixel(); }
AComponent makeAdcDefault() { return makeColumnAdc(); }
AComponent makeMacDefault() { return makeSwitchedCapMac(); }
AComponent makeAdderDefault() { return makeChargeAdder(); }
AComponent makeScalerDefault() { return makeScaler(); }
AComponent makeAbsDefault() { return makeAbsUnit(); }
AComponent makeMax4() { return makeMaxUnit(4); }
AComponent makeCmpDefault() { return makeComparator(); }
AComponent makeLogDefault() { return makeLogUnit(); }
AComponent makePamDefault() { return makePassiveAnalogMemory(); }
AComponent makeAamDefault() { return makeActiveAnalogMemory(); }
AComponent makeC2vDefault() { return makeChargeToVoltage(); }
AComponent makeI2vDefault() { return makeCurrentToVoltage(); }
AComponent makeT2vDefault() { return makeTimeToVoltage(); }
AComponent makeShDefault() { return makeSampleHold(); }
AComponent makeDvsDefault() { return makeDvsPixel(); }

class ComponentFactorySweep
    : public ::testing::TestWithParam<FactoryCase>
{
};

TEST_P(ComponentFactorySweep, EnergyIsPositiveFiniteAndStable)
{
    AComponent c = GetParam().make();
    EXPECT_GT(c.numCells(), 0);

    ComponentTiming t{10e-6, 33e-3};
    Energy per_op = c.energyPerOp(t);
    Energy per_frame = c.energyPerFramePerComponent(t);
    EXPECT_GE(per_op + per_frame, 0.0);
    EXPECT_GT(per_op + per_frame, 0.0) << "component consumes nothing";
    EXPECT_TRUE(std::isfinite(per_op));
    EXPECT_TRUE(std::isfinite(per_frame));

    // Determinism.
    EXPECT_DOUBLE_EQ(c.energyPerOp(t), per_op);
}

TEST_P(ComponentFactorySweep, BreakdownCoversEverything)
{
    AComponent c = GetParam().make();
    ComponentTiming t{10e-6, 33e-3};
    Energy sum = 0.0;
    for (const auto &[name, e] : c.cellBreakdown(t)) {
        EXPECT_FALSE(name.empty());
        sum += e;
    }
    EXPECT_NEAR(sum,
                c.energyPerOp(t) + c.energyPerFramePerComponent(t),
                1e-18);
}

INSTANTIATE_TEST_SUITE_P(
    Library, ComponentFactorySweep,
    ::testing::Values(
        FactoryCase{"aps4t", &makeAps4TDefault},
        FactoryCase{"aps3t", &makeAps3TDefault},
        FactoryCase{"dps", &makeDps10},
        FactoryCase{"pwm", &makePwmDefault},
        FactoryCase{"adc", &makeAdcDefault},
        FactoryCase{"mac", &makeMacDefault},
        FactoryCase{"adder", &makeAdderDefault},
        FactoryCase{"scaler", &makeScalerDefault},
        FactoryCase{"abs", &makeAbsDefault},
        FactoryCase{"max", &makeMax4},
        FactoryCase{"comparator", &makeCmpDefault},
        FactoryCase{"log", &makeLogDefault},
        FactoryCase{"passive-mem", &makePamDefault},
        FactoryCase{"active-mem", &makeAamDefault},
        FactoryCase{"c2v", &makeC2vDefault},
        FactoryCase{"i2v", &makeI2vDefault},
        FactoryCase{"t2v", &makeT2vDefault},
        FactoryCase{"s&h", &makeShDefault},
        FactoryCase{"dvs", &makeDvsDefault}),
    [](const ::testing::TestParamInfo<FactoryCase> &info) {
        std::string n = info.param.name;
        for (char &ch : n) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return n;
    });

// --------------------------------------------- design-level invariants

class UsecaseNodeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(UsecaseNodeSweep, RhythmicSimulatesAcrossNodes)
{
    int nm = GetParam();
    EnergyReport r = buildRhythmic(SensorVariant::TwoDIn, nm)
                         ->simulate();
    EXPECT_GT(r.total(), 0.0);
    EXPECT_GT(r.category(EnergyCategory::Sen), 0.0);
    EXPECT_GT(r.category(EnergyCategory::CompD), 0.0);
    // The Fig. 6 identity holds at every node.
    EXPECT_NEAR(r.numAnalogSlots * r.analogUnitTime +
                    r.digitalLatency,
                r.frameTime, 1e-9);
}

TEST_P(UsecaseNodeSweep, EdgazeSimulatesAcrossNodes)
{
    int nm = GetParam();
    EnergyReport r = buildEdgaze(EdgazeVariant::TwoDIn, nm)
                         ->simulate();
    EXPECT_GT(r.total(), 0.0);
    EXPECT_GT(r.category(EnergyCategory::MemD), 0.0);
}

TEST_P(UsecaseNodeSweep, InSensorComputeScalesWithNodeEnergy)
{
    int nm = GetParam();
    if (nm == 65)
        GTEST_SKIP() << "reference node";
    EnergyReport r65 = buildRhythmic(SensorVariant::TwoDIn, 65)
                           ->simulate();
    EnergyReport r = buildRhythmic(SensorVariant::TwoDIn, nm)
                         ->simulate();
    double expect = energyScaleFactor(65, nm);
    double got = r.category(EnergyCategory::CompD) /
                 r65.category(EnergyCategory::CompD);
    EXPECT_NEAR(got, expect, 0.05 * expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UsecaseNodeSweep,
                         ::testing::Values(180, 130, 110, 90, 65, 45));

class FpsSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(FpsSweep, FrameBudgetFollowsFpsTarget)
{
    double fps = GetParam();
    EnergyReport r =
        buildRhythmic(SensorVariant::TwoDIn, 65, fps)->simulate();
    EXPECT_NEAR(r.frameTime, 1.0 / fps, 1e-9);
    // The Fig. 6 identity holds at every frame rate.
    EXPECT_NEAR(r.numAnalogSlots * r.analogUnitTime +
                    r.digitalLatency,
                r.frameTime, 1e-9);
}

TEST_P(FpsSweep, AdcEnergyFollowsTheFomCurve)
{
    // The per-conversion energy must equal the Walden-survey lookup
    // at the sampling rate the delay estimation implies: the Sec. 4.1
    // -> Sec. 4.2 coupling. (The FoM curve is U-shaped, so faster
    // frames are CHEAPER per conversion until the survey sweet spot.)
    double fps = GetParam();
    EnergyReport r =
        buildRhythmic(SensorVariant::TwoDIn, 65, fps)->simulate();

    // 720 conversions per column ADC share the T_A slot.
    const double conversions_per_adc = 720.0;
    double per_conv_delay = r.analogUnitTime / conversions_per_adc;
    Energy expect = adcEnergyPerConversion(8, 1.0 / per_conv_delay) *
                    921600.0;
    EXPECT_NEAR(r.energyOf("AdcArray"), expect, 0.01 * expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FpsSweep,
                         ::testing::Values(15.0, 30.0, 60.0, 120.0));

// ------------------------------------------- paper-study spec properties
//
// Invariants over EVERY serializable study (all sample, usecase and
// validation specs in the registry): serialization is a fixed point
// after one round trip, and materialization is deterministic down to
// the last bit of every per-unit energy.

class StudySpecSweep : public ::testing::TestWithParam<std::string>
{
  protected:
    const PaperStudy &study() const
    {
        return testfix::studyByKey(GetParam());
    }
};

TEST_P(StudySpecSweep, SaveLoadSaveIsAFixedPoint)
{
    const spec::DesignSpec &s = study().spec;
    const std::string once = spec::toJson(s);
    const std::string twice = spec::toJson(spec::fromJson(once));
    EXPECT_EQ(once, twice) << study().key;
    // And a third pass stays put: save(load(save(s))) == save(s).
    EXPECT_EQ(spec::toJson(spec::fromJson(twice)), once)
        << study().key;
}

TEST_P(StudySpecSweep, MaterializeTwiceYieldsIdenticalReports)
{
    const spec::DesignSpec &s = study().spec;
    EnergyReport a = s.materialize().simulate();
    EnergyReport b = s.materialize().simulate();
    EXPECT_EQ(a.total(), b.total()) << study().key;
    ASSERT_EQ(a.units.size(), b.units.size()) << study().key;
    for (size_t i = 0; i < a.units.size(); ++i) {
        EXPECT_EQ(a.units[i].name, b.units[i].name) << study().key;
        EXPECT_EQ(a.units[i].energy, b.units[i].energy)
            << study().key << "/" << a.units[i].name;
    }
    EXPECT_EQ(a.frameTime, b.frameTime) << study().key;
    EXPECT_EQ(a.footprint, b.footprint) << study().key;
}

TEST_P(StudySpecSweep, LoadedSpecSimulatesLikeTheOriginal)
{
    const spec::DesignSpec &s = study().spec;
    EnergyReport direct = s.materialize().simulate();
    EnergyReport via_json =
        spec::fromJson(spec::toJson(s)).materialize().simulate();
    EXPECT_EQ(direct.total(), via_json.total()) << study().key;
}

INSTANTIATE_TEST_SUITE_P(Registry, StudySpecSweep,
                         ::testing::ValuesIn(testfix::studyKeys()),
                         testfix::paramName);

// ------------------------------------------------- three-layer stacking

TEST(ThreeLayer, AreaSummaryTracksDramLayer)
{
    AreaSummary a;
    a.add(Layer::Sensor, 5e-6);
    a.add(Layer::Dram, 7e-6);
    a.add(Layer::Compute, 3e-6);
    EXPECT_TRUE(a.stacked());
    EXPECT_NEAR(a.footprint(), 7e-6, 1e-12); // DRAM die dominates
}

TEST(ThreeLayer, DramLayerNamed)
{
    EXPECT_STREQ(layerName(Layer::Dram), "stacked-dram");
}

TEST(ThreeLayer, DesignWithDramLayerSimulates)
{
    using spec::ComponentKind;
    Design d = spec::DesignBuilder("threelayer")
                   .fps(30.0)
                   .digitalClock(50e6)
                   .inputStage("Input", {64, 64, 1})
                   .stage({.name = "Th",
                           .op = StageOp::Threshold,
                           .inputSize = {64, 64, 1},
                           .outputSize = {64, 64, 1}},
                          {"Input"})
                   .analogArray({.name = "Pixel",
                                 .role = AnalogRole::Sensing,
                                 .numComponents = {64, 64, 1},
                                 .inputShape = {1, 64, 1},
                                 .outputShape = {1, 64, 1},
                                 .componentArea = 9e-12,
                                 .component = {.kind = ComponentKind::Aps4T}})
                   .analogArray({.name = "Adc",
                                 .role = AnalogRole::Adc,
                                 .numComponents = {64, 1, 1},
                                 .inputShape = {1, 64, 1},
                                 .outputShape = {1, 64, 1},
                                 .component = {.kind =
                                                   ComponentKind::ColumnAdc}})
                   .memory({.name = "DramStore",
                            .layer = Layer::Dram,
                            .kind = MemoryKind::FrameBuffer,
                            .model = spec::MemoryModel::Explicit,
                            .capacityWords = 4096,
                            .wordBits = 8,
                            .activeFraction = 0.2,
                            .readEnergyPerWord = 15e-12,
                            .writeEnergyPerWord = 17e-12,
                            .leakagePower = 1e-3,
                            .area = 2e-6})
                   .computeUnit({.name = "ThUnit",
                                 .layer = Layer::Compute,
                                 .inputPixelsPerCycle = {1, 1, 1},
                                 .outputPixelsPerCycle = {1, 1, 1},
                                 .energyPerCycle = 1e-12,
                                 .numStages = 1,
                                 .area = 0.5e-6},
                                {"DramStore"})
                   .adcOutput("DramStore")
                   .mipi()
                   .tsv()
                   .map("Input", "Pixel")
                   .map("Th", "ThUnit")
                   .build();

    EnergyReport r = d.simulate();
    // Two uTSV crossings: ADC -> DRAM die, DRAM die -> logic die.
    EXPECT_EQ(r.tsvBytes, 2 * 64 * 64);
    // Footprint is the largest of the three dies (the DRAM one).
    EXPECT_NEAR(r.footprint, 2e-6, 1e-9);
    EXPECT_GT(r.energyOf("DramStore"), 0.0);
}

// -------------------------------------------------- DRAM model coupling

TEST(ThreeLayer, DramModelFeedsDigitalMemoryParams)
{
    // The Fig. 2e pattern: derive per-word energies from the
    // DRAMPower-substitute burst numbers.
    DramParams dp;
    Energy per_byte_read = dp.readBurstEnergy / dp.burstBytes;
    EXPECT_GT(per_byte_read, 1e-12);
    EXPECT_LT(per_byte_read, 100e-12);

    // Round trip: a full-frame read/write through the traffic model
    // matches burst accounting within rounding.
    DramTraffic t;
    t.readBytes = 1 << 20;
    t.writeBytes = 0;
    t.rowHitRate = 1.0;
    t.activeFraction = 0.0;
    DramEnergy e = dramEnergyPerFrame(t, 33e-3, dp);
    double bursts = static_cast<double>(t.readBytes) / dp.burstBytes;
    EXPECT_NEAR(e.burstPart, bursts * dp.readBurstEnergy, 1e-12);
}

} // namespace
} // namespace camj

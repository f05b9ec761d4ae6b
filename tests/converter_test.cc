/**
 * @file
 * Tests for the domain-conversion component library and its
 * interaction with the pre-simulation checks: the converters the
 * checker names must actually fix the failing chains, and the DVS
 * pixel must digitize at the array boundary. Also covers the CSV
 * report export.
 */

#include <gtest/gtest.h>

#include "analog/acomponent.h"
#include "common/logging.h"
#include "core/checks.h"
#include "core/design.h"
#include "spec/builder.h"

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

AnalogArray
arrayOf(const char *name, AComponent comp, int64_t cols = 16)
{
    AnalogArrayParams p;
    p.name = name;
    p.numComponents = {cols, 1, 1};
    p.inputShape = {1, cols, 1};
    p.outputShape = {1, cols, 1};
    return AnalogArray(p, std::move(comp));
}

// -------------------------------------------------------- converters

TEST(Converters, DomainsAreCorrect)
{
    EXPECT_EQ(makeChargeToVoltage().inputDomain(),
              SignalDomain::Charge);
    EXPECT_EQ(makeChargeToVoltage().outputDomain(),
              SignalDomain::Voltage);
    EXPECT_EQ(makeCurrentToVoltage().inputDomain(),
              SignalDomain::Current);
    EXPECT_EQ(makeTimeToVoltage().inputDomain(), SignalDomain::Time);
    EXPECT_EQ(makeSampleHold().inputDomain(), SignalDomain::Voltage);
    EXPECT_EQ(makeSampleHold().outputDomain(), SignalDomain::Voltage);
    EXPECT_EQ(makeDvsPixel().inputDomain(), SignalDomain::Optical);
    EXPECT_EQ(makeDvsPixel().outputDomain(), SignalDomain::Digital);
}

TEST(Converters, InsertingChargeToVoltageFixesTheChain)
{
    // charge-domain adder -> voltage-domain scaler: broken...
    AnalogArray adder = arrayOf("adder", makeChargeAdder());
    AnalogArray scaler = arrayOf("scaler", makeScaler());
    std::vector<const AnalogArray *> broken = {&adder, &scaler};
    EXPECT_THROW(checkAnalogDomains(broken), ConfigError);

    // ...until the converter the error message names is inserted.
    AnalogArray conv = arrayOf("c2v", makeChargeToVoltage());
    std::vector<const AnalogArray *> fixed = {&adder, &conv, &scaler};
    EXPECT_NO_THROW(checkAnalogDomains(fixed));
}

TEST(Converters, TimeToVoltageBridgesPwmPixels)
{
    AnalogArray pwm = arrayOf("pwm", makePwmPixel());
    AnalogArray mac = arrayOf("mac", makeSwitchedCapMac());
    std::vector<const AnalogArray *> broken = {&pwm, &mac};
    EXPECT_THROW(checkAnalogDomains(broken), ConfigError);

    AnalogArray t2v = arrayOf("t2v", makeTimeToVoltage());
    std::vector<const AnalogArray *> fixed = {&pwm, &t2v, &mac};
    EXPECT_NO_THROW(checkAnalogDomains(fixed));
}

TEST(Converters, EnergyIsPositiveAndPrecisionDriven)
{
    ComponentTiming t{10e-6, 33e-3};
    ConverterParams lo;
    lo.bits = 6;
    ConverterParams hi;
    hi.bits = 10;
    Energy e_lo = makeChargeToVoltage(lo).energyPerOp(t);
    Energy e_hi = makeChargeToVoltage(hi).energyPerOp(t);
    EXPECT_GT(e_lo, 0.0);
    EXPECT_GT(e_hi, e_lo); // bigger caps for higher precision
}

TEST(Converters, SampleHoldEnergyIsDelayIndependent)
{
    // Eq. 7 x Eq. 10 property: when the opamp bandwidth derives from
    // the allocated delay and the bias window scales with it, the
    // two cancel — slower designs are not cheaper.
    AComponent sh = makeSampleHold();
    Energy fast = sh.energyPerOp({1e-6, 33e-3});
    Energy slow = sh.energyPerOp({10e-6, 33e-3});
    EXPECT_NEAR(slow, fast, 1e-9 * fast);
}

TEST(Converters, FixedBandwidthBufferPaysForHoldTime)
{
    // The paper's frame-buffer case: an opamp whose speed is fixed
    // by an external requirement and that stays active over a fixed
    // duration — longer holds then cost proportionally more.
    StaticBiasParams p;
    p.loadCapacitance = 100e-15;
    p.vdda = 2.5;
    p.mode = BiasMode::GmOverId;
    p.fixedBandwidth = 1e6;
    StaticBiasedCell hold("hold", p);
    Energy short_hold = hold.energyPerAccess({1e-6, 1e-3});
    Energy long_hold = hold.energyPerAccess({1e-6, 33e-3});
    EXPECT_NEAR(long_hold / short_hold, 33.0, 1e-6);
    // The bias current no longer needs a delay to be defined.
    EXPECT_GT(hold.biasCurrent({0.0, 1e-3}), 0.0);
}

TEST(Converters, DvsPixelCheaperThanApsPlusAdc)
{
    // Event pixels avoid the full-resolution ADC: a DVS access must
    // cost less than a 4T readout plus a 10-bit conversion.
    ComponentTiming t{100e-6, 33e-3};
    Energy dvs = makeDvsPixel().energyPerOp(t);
    Energy aps = makeAps4T().energyPerOp(t);
    Energy adc = makeColumnAdc({.bits = 10}).energyPerOp(t);
    EXPECT_LT(dvs, aps + adc);
    EXPECT_GT(dvs, 0.0);
}

TEST(Converters, DvsChainPassesAdcBoundary)
{
    AnalogArray dvs = arrayOf("dvs", makeDvsPixel());
    std::vector<const AnalogArray *> chain = {&dvs};
    EXPECT_NO_THROW(checkAdcBoundary(chain));
}

// A full design using a PWM pixel + time-to-voltage converter + MAC
// + ADC: four analog arrays end to end.
TEST(Converters, FullMixedDomainDesignSimulates)
{
    // A row of 32 components, as arrayOf() lays one out.
    auto row = [](const char *name, AnalogRole role,
                  spec::ComponentSpec component) {
        return spec::AnalogArraySpec{.name = name,
                                     .role = role,
                                     .numComponents = {32, 1, 1},
                                     .inputShape = {1, 32, 1},
                                     .outputShape = {1, 32, 1},
                                     .component = component};
    };

    Design d = spec::DesignBuilder("pwm-chain")
                   .fps(30.0)
                   .inputStage("Input", {32, 32, 1})
                   .stage({.name = "Conv",
                           .op = StageOp::Conv2d,
                           .inputSize = {32, 32, 1},
                           .outputSize = {30, 30, 1},
                           .kernel = {3, 3, 1},
                           .stride = {1, 1, 1}},
                          {"Input"})
                   .analogArray(
                       {.name = "PwmArray",
                        .role = AnalogRole::Sensing,
                        .numComponents = {32, 32, 1},
                        .inputShape = {1, 32, 1},
                        .outputShape = {1, 32, 1},
                        .component = {.kind = spec::ComponentKind::PwmPixel}})
                   .analogArray(
                       row("T2V", AnalogRole::AnalogCompute,
                           {.kind = spec::ComponentKind::TimeToVoltage}))
                   .analogArray(
                       row("Mac", AnalogRole::AnalogCompute,
                           {.kind = spec::ComponentKind::SwitchedCapMac}))
                   .analogArray(row("Adc", AnalogRole::Adc,
                                    {.kind = spec::ComponentKind::ColumnAdc,
                                     .adc = {.bits = 8}}))
                   .mipi()
                   .map("Input", "PwmArray")
                   .map("Conv", "Mac")
                   .build();

    EnergyReport r = d.simulate();
    EXPECT_GT(r.total(), 0.0);
    EXPECT_EQ(r.numAnalogSlots, 5); // 4 arrays + exposure overlap
    EXPECT_GT(r.category(EnergyCategory::CompA), 0.0);
}

// --------------------------------------------------------------- csv

TEST(ReportCsv, HasHeaderRowsAndTotal)
{
    EnergyReport r;
    r.designName = "x";
    r.fps = 30.0;
    r.units.push_back({"pixel", EnergyCategory::Sen, Layer::Sensor,
                       2e-12});
    r.units.push_back({"mipi", EnergyCategory::Mipi, Layer::Sensor,
                       3e-12});
    std::string csv = r.csv();
    EXPECT_NE(csv.find("unit,category,layer,energy_pJ"),
              std::string::npos);
    EXPECT_NE(csv.find("pixel,SEN,sensor,2.000000"),
              std::string::npos);
    EXPECT_NE(csv.find("TOTAL,,,5.000000"), std::string::npos);

    // One header + two units + one total = 4 lines.
    int lines = 0;
    for (char ch : csv) {
        if (ch == '\n')
            ++lines;
    }
    EXPECT_EQ(lines, 4);
}

} // namespace
} // namespace camj

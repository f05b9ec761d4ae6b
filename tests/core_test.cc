/**
 * @file
 * Tests for src/core's building blocks: delay estimation
 * (Sec. 4.1), the analog pre-simulation checks, the footprint model,
 * communication interfaces, and the energy report.
 */

#include <gtest/gtest.h>

#include "analog/afa.h"
#include "comm/interface.h"
#include "common/logging.h"
#include "common/units.h"
#include "core/area.h"
#include "core/checks.h"
#include "core/delay.h"
#include "core/report.h"

namespace camj
{
namespace
{

// ---------------------------------------------------------------- delay

/** The estimate of a frame budget the digital side fits in. */
DelayEstimate
delaysOf(Time frame_time, Time digital_latency, int num_analog_arrays)
{
    DelayEstimate d;
    const std::optional<ConfigError> verdict = estimateDelaysInto(
        frame_time, digital_latency, num_analog_arrays, d);
    EXPECT_FALSE(verdict.has_value()) << verdict->what();
    return d;
}

TEST(Delay, Fig6Relation)
{
    // Two analog units -> 3 slots: 3 * T_A + T_D = T_FR.
    DelayEstimate d = delaysOf(33.3e-3, 3.3e-3, 2);
    EXPECT_EQ(d.numSlots, 3);
    EXPECT_NEAR(3.0 * d.analogUnitTime + d.digitalLatency, 33.3e-3,
                1e-9);
}

TEST(Delay, PureAnalogUsesWholeFrame)
{
    DelayEstimate d = delaysOf(10e-3, 0.0, 3);
    EXPECT_EQ(d.numSlots, 4);
    EXPECT_NEAR(d.analogUnitTime, 2.5e-3, 1e-12);
}

TEST(Delay, DigitalOverrunIsFatal)
{
    for (Time latency : {11e-3, 10e-3}) {
        DelayEstimate d;
        const std::optional<ConfigError> verdict =
            estimateDelaysInto(10e-3, latency, 2, d);
        ASSERT_TRUE(verdict.has_value());
        EXPECT_EQ(verdict->rule(), Rule::D002);
    }
}

TEST(Delay, RejectsBadArguments)
{
    DelayEstimate d;
    EXPECT_THROW(estimateDelaysInto(0.0, 1e-3, 2, d), ConfigError);
    EXPECT_THROW(estimateDelaysInto(10e-3, -1e-3, 2, d), ConfigError);
    EXPECT_THROW(estimateDelaysInto(10e-3, 1e-3, 0, d), ConfigError);
}

// --------------------------------------------------------------- checks

AnalogArray
arrayWith(const char *name, SignalDomain in, SignalDomain out,
          Shape in_shape = {1, 16, 1}, Shape out_shape = {1, 16, 1})
{
    AComponent comp(name, in, out);
    comp.addCell(std::make_shared<DynamicCell>(
        "c", std::vector<CapNode>{{1e-15, 1.0}}));
    AnalogArrayParams p;
    p.name = name;
    p.numComponents = {16, 1, 1};
    p.inputShape = in_shape;
    p.outputShape = out_shape;
    return AnalogArray(p, comp);
}

TEST(Checks, DomainContinuityAccepts)
{
    AnalogArray pixel = arrayWith("pixel", SignalDomain::Optical,
                                  SignalDomain::Voltage);
    AnalogArray adc = arrayWith("adc", SignalDomain::Voltage,
                                SignalDomain::Digital);
    std::vector<const AnalogArray *> chain = {&pixel, &adc};
    EXPECT_NO_THROW(checkAnalogDomains(chain));
    EXPECT_NO_THROW(checkAdcBoundary(chain));
}

TEST(Checks, DomainMismatchNamesConversion)
{
    AnalogArray pixel = arrayWith("pixel", SignalDomain::Optical,
                                  SignalDomain::Charge);
    AnalogArray pe = arrayWith("pe", SignalDomain::Voltage,
                               SignalDomain::Voltage);
    std::vector<const AnalogArray *> chain = {&pixel, &pe};
    try {
        checkAnalogDomains(chain);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("charge"), std::string::npos);
        EXPECT_NE(msg.find("voltage"), std::string::npos);
        EXPECT_NE(msg.find("conversion"), std::string::npos);
    }
}

TEST(Checks, AdcBoundaryRejectsAnalogOutput)
{
    AnalogArray pixel = arrayWith("pixel", SignalDomain::Optical,
                                  SignalDomain::Voltage);
    std::vector<const AnalogArray *> chain = {&pixel};
    EXPECT_THROW(checkAdcBoundary(chain), ConfigError);
}

TEST(Checks, ThroughputMismatchNeedsBuffer)
{
    // Producer emits 16/step, consumer (in the charge domain, so no
    // inherent buffering) expects 4/step.
    AnalogArray prod = arrayWith("prod", SignalDomain::Optical,
                                 SignalDomain::Charge, {1, 16, 1},
                                 {1, 16, 1});
    AnalogArray cons = arrayWith("cons", SignalDomain::Charge,
                                 SignalDomain::Voltage, {1, 4, 1},
                                 {1, 4, 1});
    std::vector<const AnalogArray *> chain = {&prod, &cons};
    EXPECT_THROW(checkAnalogThroughput(chain), ConfigError);
}

TEST(Checks, VoltageInputBuffersInherently)
{
    // Footnote 1: a voltage-domain consumer's capacitance buffers the
    // mismatch; only a warning.
    setLoggingEnabled(false);
    AnalogArray prod = arrayWith("prod", SignalDomain::Optical,
                                 SignalDomain::Voltage, {1, 16, 1},
                                 {1, 16, 1});
    AnalogArray cons = arrayWith("cons", SignalDomain::Voltage,
                                 SignalDomain::Digital, {1, 4, 1},
                                 {1, 4, 1});
    std::vector<const AnalogArray *> chain = {&prod, &cons};
    EXPECT_NO_THROW(checkAnalogThroughput(chain));
}

TEST(Checks, EmptyChainRejected)
{
    std::vector<const AnalogArray *> chain;
    EXPECT_THROW(checkAnalogDomains(chain), ConfigError);
    EXPECT_THROW(checkAdcBoundary(chain), ConfigError);
}

// ----------------------------------------------------------------- area

TEST(Area, TwoDFootprintSumsSensorLayer)
{
    AreaSummary a;
    a.add(Layer::Sensor, 8e-6);
    a.add(Layer::Sensor, 2e-6);
    EXPECT_FALSE(a.stacked());
    EXPECT_NEAR(a.footprint(), 10e-6, 1e-12);
}

TEST(Area, StackedFootprintIsMaxLayer)
{
    AreaSummary a;
    a.add(Layer::Sensor, 8e-6);
    a.add(Layer::Compute, 3e-6);
    EXPECT_TRUE(a.stacked());
    EXPECT_NEAR(a.footprint(), 8e-6, 1e-12);

    a.add(Layer::Compute, 7e-6); // compute die now dominates
    EXPECT_NEAR(a.footprint(), 10e-6, 1e-12);
}

TEST(Area, OffChipExcludedFromFootprint)
{
    AreaSummary a;
    a.add(Layer::Sensor, 5e-6);
    a.add(Layer::OffChip, 100e-6);
    EXPECT_NEAR(a.footprint(), 5e-6, 1e-12);
}

TEST(Area, NegativeAreaRejected)
{
    AreaSummary a;
    EXPECT_THROW(a.add(Layer::Sensor, -1.0), ConfigError);
}

// ----------------------------------------------------------------- comm

TEST(Comm, DefaultEnergies)
{
    CommInterface mipi = makeMipiCsi2();
    CommInterface tsv = makeMicroTsv();
    // ~100 pJ/B vs ~1 pJ/B: the 100x gap that motivates in-sensor
    // computing (Sec. 2.2).
    EXPECT_NEAR(mipi.energyPerByte() / tsv.energyPerByte(), 100.0,
                1e-9);
}

TEST(Comm, EnergyForBytes)
{
    CommInterface mipi = makeMipiCsi2();
    // 6 MB out of the sensor at 100 pJ/B ~= 0.63 mJ (the paper's
    // 1080p example).
    Energy e = mipi.energyForBytes(6 * 1024 * 1024);
    EXPECT_NEAR(e, 629e-6, 1e-6);
    EXPECT_DOUBLE_EQ(mipi.energyForBytes(0), 0.0);
}

TEST(Comm, RejectsBadUsage)
{
    EXPECT_THROW(makeMipiCsi2(0.0), ConfigError);
    EXPECT_THROW(makeMipiCsi2(-1.0), ConfigError);
    CommInterface mipi = makeMipiCsi2();
    EXPECT_THROW(mipi.energyForBytes(-1), ConfigError);
}

// --------------------------------------------------------------- report

EnergyReport
sampleReport()
{
    EnergyReport r;
    r.designName = "sample";
    r.fps = 30.0;
    r.frameTime = 1.0 / 30.0;
    r.units.push_back({"pixel", EnergyCategory::Sen, Layer::Sensor,
                       2e-6});
    r.units.push_back({"adc", EnergyCategory::Sen, Layer::Sensor,
                       3e-6});
    r.units.push_back({"pe", EnergyCategory::CompD, Layer::Compute,
                       4e-6});
    r.units.push_back({"soc", EnergyCategory::CompD, Layer::OffChip,
                       5e-6});
    r.units.push_back({"mipi", EnergyCategory::Mipi, Layer::Sensor,
                       6e-6});
    r.sensorLayerArea = 8e-6;
    r.computeLayerArea = 2e-6;
    r.footprint = 8e-6;
    return r;
}

TEST(Report, TotalsAndCategories)
{
    EnergyReport r = sampleReport();
    EXPECT_NEAR(r.total(), 20e-6, 1e-12);
    EXPECT_NEAR(r.category(EnergyCategory::Sen), 5e-6, 1e-12);
    EXPECT_NEAR(r.category(EnergyCategory::CompD), 9e-6, 1e-12);
    EXPECT_DOUBLE_EQ(r.category(EnergyCategory::Tsv), 0.0);
}

TEST(Report, UnitLookup)
{
    EnergyReport r = sampleReport();
    EXPECT_TRUE(r.hasUnit("adc"));
    EXPECT_FALSE(r.hasUnit("ghost"));
    EXPECT_NEAR(r.energyOf("pe"), 4e-6, 1e-12);
    EXPECT_THROW(r.energyOf("ghost"), ConfigError);
}

TEST(Report, PackagePowerExcludesOffChipAndMipi)
{
    EnergyReport r = sampleReport();
    // On-die: pixel + adc + pe = 9 uJ -> 270 uW at 30 fps. The SoC
    // unit and the MIPI link are excluded from the density figure.
    EXPECT_NEAR(r.packagePower(), 9e-6 * 30.0, 1e-9);
}

TEST(Report, PowerDensity)
{
    EnergyReport r = sampleReport();
    EXPECT_NEAR(r.powerDensity(), 9e-6 * 30.0 / 8e-6, 1e-6);
    r.footprint = 0.0;
    EXPECT_THROW(r.powerDensity(), ConfigError);
}

TEST(Report, EnergyPerPixel)
{
    EnergyReport r = sampleReport();
    EXPECT_NEAR(r.energyPerPixel(1000), 20e-9, 1e-15);
    EXPECT_THROW(r.energyPerPixel(0), ConfigError);
}

TEST(Report, PrettyMentionsEveryUnit)
{
    EnergyReport r = sampleReport();
    std::string text = r.pretty();
    for (const char *name : {"pixel", "adc", "pe", "soc", "mipi"})
        EXPECT_NE(text.find(name), std::string::npos) << name;
    EXPECT_NE(text.find("TOTAL"), std::string::npos);
}

TEST(Report, CategoryNamesMatchPaperLegends)
{
    EXPECT_STREQ(energyCategoryName(EnergyCategory::Sen), "SEN");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::CompA), "COMP-A");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::MemD), "MEM-D");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::Tsv), "uTSV");
    EXPECT_EQ(allEnergyCategories().size(), 7u);
}

} // namespace
} // namespace camj

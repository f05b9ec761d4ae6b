/**
 * @file
 * Unit tests for src/common: units/formatting, statistics helpers,
 * error reporting, command-line integers and shape arithmetic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/cli.h"
#include "common/logging.h"
#include "common/shape.h"
#include "common/stats.h"
#include "common/units.h"

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

// ---------------------------------------------------------------- units

TEST(Units, ConstantsAreConsistent)
{
    EXPECT_DOUBLE_EQ(units::pJ, 1e-12);
    EXPECT_DOUBLE_EQ(units::fJ * 1000.0, units::pJ);
    EXPECT_DOUBLE_EQ(units::ms * 1000.0, units::s);
    EXPECT_DOUBLE_EQ(units::MHz, 1e6);
    EXPECT_DOUBLE_EQ(units::KB * 1024.0, units::MB);
}

TEST(Units, KtAtRoomTemperature)
{
    // kT at 300 K ~= 4.14e-21 J, the quantity in Eq. 6.
    EXPECT_NEAR(constants::kT, 4.14e-21, 0.01e-21);
}

TEST(Units, FormatEngPicksPrefixes)
{
    EXPECT_EQ(formatEng(3.2e-12, "J", 1), "3.2 pJ");
    EXPECT_EQ(formatEng(1.5e-3, "W", 1), "1.5 mW");
    EXPECT_EQ(formatEng(2.0e6, "Hz", 0), "2 MHz");
    EXPECT_EQ(formatEng(0.0, "J"), "0 J");
}

TEST(Units, FormatEngNegativeValues)
{
    EXPECT_EQ(formatEng(-4.5e-9, "J", 1), "-4.5 nJ");
}

TEST(Units, FormatHelpers)
{
    EXPECT_EQ(formatEnergy(1e-12), "1.000 pJ");
    EXPECT_EQ(formatTime(33.3e-3), "33.300 ms");
    EXPECT_EQ(formatPower(2e-6), "2.000 uW");
}

// -------------------------------------------------------------- logging

TEST(Logging, FatalThrowsConfigError)
{
    EXPECT_THROW(fatal("bad config %d", 42), ConfigError);
}

TEST(Logging, PanicThrowsInternalError)
{
    EXPECT_THROW(panic("invariant %s", "broken"), InternalError);
}

TEST(Logging, FatalMessageContainsFormattedText)
{
    try {
        fatal("value was %d", 17);
        FAIL() << "fatal() returned";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 17"),
                  std::string::npos);
    }
}

TEST(Logging, MessageDropsOnlyFatalsPrefix)
{
    try {
        fatal(Rule::E018, "json: bad %s", "token");
        FAIL() << "fatal() returned";
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.what(), "fatal: json: bad token");
        EXPECT_STREQ(e.message(), "json: bad token");
    }
    EXPECT_STREQ(ConfigError("plain text").message(), "plain text");
}

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("%s-%03d", "x", 7), "x-007");
}

// ------------------------------------------------------------------ cli

TEST(Cli, IntegerFlagsAreRangeChecked)
{
    EXPECT_EQ(parseIntInRange("7", 0, 10), 7);
    EXPECT_EQ(parseIntInRange("0", 0, 10), 0);
    EXPECT_EQ(parseIntInRange("10", 0, 10), 10);
    EXPECT_EQ(parseIntInRange("-3", -5, 10), -3);
    // Outside the range, past a long long, or not a whole integer.
    EXPECT_FALSE(parseIntInRange("11", 0, 10));
    EXPECT_FALSE(parseIntInRange("0", 1, 10));
    EXPECT_FALSE(parseIntInRange("-1", 0, 10));
    EXPECT_FALSE(parseIntInRange("4294967297", 0, 2147483647));
    EXPECT_FALSE(parseIntInRange("99999999999999999999", 0,
                                 std::numeric_limits<long long>::max()));
    for (const char *text : {"", "-", "+5", " 5", "5 ", "5x", "0x10",
                             "1.5", "1e3"})
        EXPECT_FALSE(parseIntInRange(text, -100, 100)) << text;
}

// ---------------------------------------------------------------- stats

TEST(Stats, PearsonPerfectCorrelation)
{
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectAnticorrelation)
{
    std::vector<double> x = {1, 2, 3};
    std::vector<double> y = {3, 2, 1};
    EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Stats, PearsonUncorrelated)
{
    std::vector<double> x = {1, 2, 3, 4};
    std::vector<double> y = {1, -1, -1, 1};
    EXPECT_NEAR(pearson(x, y), 0.0, 1e-12);
}

TEST(Stats, PearsonRejectsBadInput)
{
    EXPECT_THROW(pearson({1, 2}, {1, 2, 3}), ConfigError);
    EXPECT_THROW(pearson({1}, {1}), ConfigError);
    EXPECT_THROW(pearson({1, 1, 1}, {1, 2, 3}), ConfigError);
}

TEST(Stats, MapeBasic)
{
    // errors: 10% and 20% -> MAPE 15%.
    EXPECT_NEAR(mape({110, 80}, {100, 100}), 0.15, 1e-12);
}

TEST(Stats, MapeZeroErrorIsZero)
{
    EXPECT_DOUBLE_EQ(mape({5, 7}, {5, 7}), 0.0);
}

TEST(Stats, MapeRejectsZeroReference)
{
    EXPECT_THROW(mape({1.0}, {0.0}), ConfigError);
}

TEST(Stats, LinearFitRecoversLine)
{
    std::vector<double> x = {0, 1, 2, 3, 4};
    std::vector<double> y;
    for (double v : x)
        y.push_back(3.0 * v - 1.0);
    LinearFit f = linearFit(x, y);
    EXPECT_NEAR(f.slope, 3.0, 1e-12);
    EXPECT_NEAR(f.intercept, -1.0, 1e-12);
    EXPECT_NEAR(f.r2, 1.0, 1e-12);
    EXPECT_NEAR(f(10.0), 29.0, 1e-9);
}

TEST(Stats, LinearFitConstantXRejected)
{
    EXPECT_THROW(linearFit({2, 2, 2}, {1, 2, 3}), ConfigError);
}

TEST(Stats, MeanMedianGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
    EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_NEAR(geomean({1, 100}), 10.0, 1e-9);
    EXPECT_THROW(mean({}), ConfigError);
    EXPECT_THROW(median({}), ConfigError);
    EXPECT_THROW(geomean({1, 0}), ConfigError);
}

// ---------------------------------------------------------------- shape

TEST(Shape, CountAndValidity)
{
    Shape s{4, 3, 2};
    EXPECT_EQ(s.count(), 24);
    EXPECT_TRUE(s.valid());
    EXPECT_EQ(s.str(), "4x3x2");

    Shape bad{0, 3, 2};
    EXPECT_FALSE(bad.valid());
}

TEST(Shape, DefaultsToUnitDimensions)
{
    Shape s{5};
    EXPECT_EQ(s.height, 1);
    EXPECT_EQ(s.channels, 1);
    EXPECT_EQ(s.count(), 5);
}

TEST(Shape, Equality)
{
    EXPECT_EQ(Shape(2, 3, 1), Shape(2, 3, 1));
    EXPECT_NE(Shape(2, 3, 1), Shape(3, 2, 1));
}

TEST(Shape, StencilOutputExtent)
{
    // (32 - 2) / 2 + 1 = 16: the paper's Fig. 5 binning.
    EXPECT_EQ(stencilOutputExtent(32, 2, 2), 16);
    // (16 - 3) / 1 + 1 = 14: the edge-detection stage.
    EXPECT_EQ(stencilOutputExtent(16, 3, 1), 14);
    // Non-dividing strides floor.
    EXPECT_EQ(stencilOutputExtent(157, 2, 2), 78);
}

TEST(Shape, StencilRejectsBadArguments)
{
    EXPECT_THROW(stencilOutputExtent(4, 5, 1), ConfigError);
    EXPECT_THROW(stencilOutputExtent(4, 0, 1), ConfigError);
    EXPECT_THROW(stencilOutputExtent(4, 2, 0), ConfigError);
}

// Property sweep: the stencil formula matches a brute-force count of
// window placements for a grid of configurations.
class StencilProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(StencilProperty, MatchesBruteForce)
{
    auto [input, kernel, stride] = GetParam();
    if (kernel > input)
        GTEST_SKIP();
    int64_t brute = 0;
    for (int64_t start = 0; start + kernel <= input; start += stride)
        ++brute;
    EXPECT_EQ(stencilOutputExtent(input, kernel, stride), brute)
        << "input=" << input << " kernel=" << kernel
        << " stride=" << stride;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StencilProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 16, 33, 640),
                       ::testing::Values(1, 2, 3, 5),
                       ::testing::Values(1, 2, 3, 4)));

} // namespace
} // namespace camj

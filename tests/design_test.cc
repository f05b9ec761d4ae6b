/**
 * @file
 * Integration tests for the Design orchestrator: the full Sec. 3/4
 * methodology on small end-to-end designs, including every
 * pre-simulation check, the delay estimation, stall detection, and
 * communication-volume accounting.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/units.h"
#include "core/design.h"
#include "explore/simulator.h"
#include "spec/builder.h"
#include "spec/samples.h"

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

/** A DPS pixel with an in-pixel converter of 8 bits. */
const spec::ComponentSpec kDps8{.kind = spec::ComponentKind::Dps,
                                .adc = {.bits = 8}};

/** The Fig. 5 quickstart design, parameterized for negative tests. */
struct Fig5Builder
{
    double fps = 30.0;
    bool map_edge = true;
    bool add_mipi = true;
    bool add_adc = true;
    int64_t line_buffer_words = 48;

    spec::DesignBuilder
    builder() const
    {
        spec::DesignBuilder b("fig5");
        b.fps(fps)
            .digitalClock(10e6)
            .inputStage("Input", {32, 32, 1})
            .stage({.name = "Binning",
                    .op = StageOp::Binning,
                    .inputSize = {32, 32, 1},
                    .outputSize = {16, 16, 1},
                    .kernel = {2, 2, 1},
                    .stride = {2, 2, 1}},
                   {"Input"})
            .stage({.name = "Edge",
                    .op = StageOp::DepthwiseConv2d,
                    .inputSize = {16, 16, 1},
                    .outputSize = {14, 14, 1},
                    .kernel = {3, 3, 1},
                    .stride = {1, 1, 1}},
                   {"Binning"})
            .analogArray({.name = "PixelArray",
                          .role = AnalogRole::Sensing,
                          .numComponents = {16, 16, 1},
                          .inputShape = {1, 32, 1},
                          .outputShape = {1, 16, 1},
                          .componentArea = 36e-12,
                          .component = {.kind = spec::ComponentKind::Aps4T,
                                        .aps = {.pixelsPerComponent = 4}}});
        if (add_adc) {
            b.analogArray(
                {.name = "AdcArray",
                 .role = AnalogRole::Adc,
                 .numComponents = {16, 1, 1},
                 .inputShape = {1, 16, 1},
                 .outputShape = {1, 16, 1},
                 .componentArea = 1e-9,
                 .component = {.kind = spec::ComponentKind::ColumnAdc}});
        }
        b.sram("LineBuffer", Layer::Sensor, MemoryKind::LineBuffer,
               line_buffer_words, 8, 65, 1.0)
            .computeUnit({.name = "EdgeUnit",
                          .layer = Layer::Sensor,
                          .inputPixelsPerCycle = {1, 3, 1},
                          .outputPixelsPerCycle = {1, 1, 1},
                          .energyPerCycle = 3e-12,
                          .numStages = 2},
                         {"LineBuffer"})
            .adcOutput("LineBuffer");
        if (add_mipi)
            b.mipi();
        b.map("Input", "PixelArray").map("Binning", "PixelArray");
        if (map_edge)
            b.map("Edge", "EdgeUnit");
        return b;
    }

    Design build() const { return builder().build(); }
};

TEST(Design, Fig5SimulatesEndToEnd)
{
    Design d = Fig5Builder{}.build();
    EnergyReport r = d.simulate();

    EXPECT_GT(r.total(), 0.0);
    EXPECT_GT(r.category(EnergyCategory::Sen), 0.0);
    EXPECT_GT(r.category(EnergyCategory::CompD), 0.0);
    EXPECT_GT(r.category(EnergyCategory::MemD), 0.0);
    EXPECT_GT(r.category(EnergyCategory::Mipi), 0.0);
    EXPECT_DOUBLE_EQ(r.category(EnergyCategory::Tsv), 0.0);
}

TEST(Design, Fig6DelayRelation)
{
    Design d = Fig5Builder{}.build();
    EnergyReport r = d.simulate();
    // Two analog arrays -> 3 slots, and the Fig. 6 identity holds.
    EXPECT_EQ(r.numAnalogSlots, 3);
    EXPECT_NEAR(3.0 * r.analogUnitTime + r.digitalLatency, r.frameTime,
                1e-9);
    EXPECT_GT(r.digitalLatency, 0.0);
    EXPECT_LT(r.digitalLatency, r.frameTime);
}

TEST(Design, OutputVolumeReachesMipi)
{
    Design d = Fig5Builder{}.build();
    EnergyReport r = d.simulate();
    // The edge map is 14x14 bytes.
    EXPECT_EQ(r.mipiBytes, 196);
    EXPECT_NEAR(r.energyOf("MIPI-CSI2"), 196.0 * 100e-12, 1e-15);
}

TEST(Design, OutputBytesOverrideWins)
{
    Design d = Fig5Builder{}.builder().pipelineOutputBytes(977).build();
    EnergyReport r = d.simulate();
    EXPECT_EQ(r.mipiBytes, 977);
}

TEST(Design, EdgeUnitEnergyMatchesHandCalc)
{
    Design d = Fig5Builder{}.build();
    EnergyReport r = d.simulate();
    // 196 outputs at 1 per cycle, 3 pJ per cycle.
    EXPECT_NEAR(r.energyOf("EdgeUnit"), 196.0 * 3e-12, 1e-15);
}

TEST(Design, UnmappedStageIsFatal)
{
    Fig5Builder b;
    b.map_edge = false;
    Design d = b.build();
    EXPECT_THROW(d.simulate(), ConfigError);
}

TEST(Design, MissingAdcIsFatal)
{
    // Without the ADC array the chain ends in the voltage domain.
    Fig5Builder b;
    b.add_adc = false;
    Design d = b.build();
    EXPECT_THROW(d.simulate(), ConfigError);
}

TEST(Design, MissingMipiIsFatal)
{
    Fig5Builder b;
    b.add_mipi = false;
    Design d = b.build();
    EXPECT_THROW(d.simulate(), ConfigError);
}

TEST(Design, FpsBeyondDigitalThroughputIsFatal)
{
    // 196 edge cycles at 10 MHz ~= 20 us; a 60 kHz frame rate leaves
    // no analog budget.
    Fig5Builder b;
    b.fps = 60000.0;
    Design d = b.build();
    EXPECT_THROW(d.simulate(), ConfigError);
}

TEST(Design, HigherFpsRaisesAnalogPower)
{
    Fig5Builder b30;
    Fig5Builder b120;
    b120.fps = 120.0;
    EnergyReport r30 = b30.build().simulate();
    EnergyReport r120 = b120.build().simulate();
    // Same per-frame access counts, but 4x the frames per second.
    EXPECT_NEAR(r120.frameTime * 4.0, r30.frameTime, 1e-9);
    EXPECT_LT(r120.analogUnitTime, r30.analogUnitTime);
}

// ---------------------------------------------------- stacked variants

spec::DesignSpec
stackedSpec(bool set_tsv)
{
    spec::DesignBuilder b("stacked");
    b.fps(30.0)
        .digitalClock(10e6)
        .inputStage("Input", {32, 32, 1})
        .stage({.name = "Th",
                .op = StageOp::Threshold,
                .inputSize = {32, 32, 1},
                .outputSize = {32, 32, 1}},
               {"Input"})
        .analogArray({.name = "PixelArray",
                      .role = AnalogRole::Sensing,
                      .numComponents = {32, 32, 1},
                      .inputShape = {1, 32, 1},
                      .outputShape = {1, 32, 1},
                      .componentArea = 9e-12,
                      .component = {.kind = spec::ComponentKind::Aps4T}})
        .analogArray(
            {.name = "Adc",
             .role = AnalogRole::Adc,
             .numComponents = {32, 1, 1},
             .inputShape = {1, 32, 1},
             .outputShape = {1, 32, 1},
             .component = {.kind = spec::ComponentKind::ColumnAdc}})
        // Digital processing on the stacked die.
        .sram("Buf", Layer::Compute, MemoryKind::Fifo, 2048, 8, 22, 1.0)
        .computeUnit({.name = "ThUnit",
                      .layer = Layer::Compute,
                      .inputPixelsPerCycle = {1, 1, 1},
                      .outputPixelsPerCycle = {1, 1, 1},
                      .energyPerCycle = 1e-12,
                      .numStages = 1},
                     {"Buf"})
        .adcOutput("Buf")
        .mipi();
    if (set_tsv)
        b.tsv();
    return b.map("Input", "PixelArray").map("Th", "ThUnit").spec();
}

TEST(Design, StackedCrossingCountsTsvBytes)
{
    Design d = stackedSpec(true).materialize();
    EnergyReport r = d.simulate();
    // 1024 pixels cross from the sensor die to the compute die.
    EXPECT_EQ(r.tsvBytes, 1024);
    EXPECT_GT(r.category(EnergyCategory::Tsv), 0.0);
}

TEST(Design, StackedWithoutTsvInterfaceIsFatal)
{
    Design d = stackedSpec(false).materialize();
    EXPECT_THROW(d.simulate(), ConfigError);
}

TEST(Design, StackedFootprintIsMaxOfLayers)
{
    Design d = stackedSpec(true).materialize();
    EnergyReport r = d.simulate();
    EXPECT_GT(r.sensorLayerArea, 0.0);
    EXPECT_GT(r.computeLayerArea, 0.0);
    EXPECT_NEAR(r.footprint,
                std::max(r.sensorLayerArea, r.computeLayerArea),
                1e-18);
}

// ------------------------------------------- frame-retaining memories

TEST(Design, PrevFrameInputOnMemorySimulates)
{
    // A miniature Ed-Gaze: frame subtraction against a retained
    // previous frame mapped onto a FrameBuffer memory.
    Design d =
        spec::DesignBuilder("framesub")
            .fps(30.0)
            .digitalClock(10e6)
            .inputStage("Input", {16, 16, 1})
            .inputStage("Prev", {16, 16, 1})
            .stage({.name = "Sub",
                    .op = StageOp::ElementwiseSub,
                    .inputSize = {16, 16, 1},
                    .outputSize = {16, 16, 1}},
                   {"Input", "Prev"})
            .analogArray(
                {.name = "PixelArray",
                 .role = AnalogRole::Sensing,
                 .numComponents = {16, 16, 1},
                 .inputShape = {1, 16, 1},
                 .outputShape = {1, 16, 1},
                 .component = {.kind = spec::ComponentKind::Aps4T}})
            .analogArray(
                {.name = "Adc",
                 .role = AnalogRole::Adc,
                 .numComponents = {16, 1, 1},
                 .inputShape = {1, 16, 1},
                 .outputShape = {1, 16, 1},
                 .component = {.kind = spec::ComponentKind::ColumnAdc}})
            .sram("Fifo", Layer::Sensor, MemoryKind::Fifo, 256, 8, 65, 1.0)
            .sram("FrameBuf", Layer::Sensor, MemoryKind::FrameBuffer, 256,
                  8, 65, 1.0)
            .computeUnit({.name = "SubUnit",
                          .layer = Layer::Sensor,
                          .inputPixelsPerCycle = {1, 1, 1},
                          .outputPixelsPerCycle = {1, 1, 1},
                          .energyPerCycle = 1e-12,
                          .numStages = 1},
                         {"Fifo", "FrameBuf"})
            .adcOutput("Fifo")
            .mipi()
            .map("Input", "PixelArray")
            .map("Prev", "FrameBuf") // residency, prefilled
            .map("Sub", "SubUnit")
            .build();

    EnergyReport r = d.simulate();
    EXPECT_GT(r.energyOf("FrameBuf"), 0.0);
    EXPECT_GT(r.energyOf("SubUnit"), 0.0);
}

TEST(Design, NonInputStageOnMemoryRejected)
{
    Design d = spec::DesignBuilder("bad")
                   .fps(30.0)
                   .inputStage("Input", {8, 8, 1})
                   .stage({.name = "Th",
                           .op = StageOp::Threshold,
                           .inputSize = {8, 8, 1},
                           .outputSize = {8, 8, 1}},
                          {"Input"})
                   .analogArray({.name = "Pixel",
                                 .role = AnalogRole::Sensing,
                                 .numComponents = {8, 8, 1},
                                 .component = kDps8})
                   .sram("Mem", Layer::Sensor, MemoryKind::Fifo, 64, 8,
                         65, 1.0)
                   .mipi()
                   .map("Input", "Pixel")
                   .map("Th", "Mem") // compute on a memory: nonsense
                   .build();
    EXPECT_THROW(d.simulate(), ConfigError);
}

TEST(Design, UnmappedLeadingAnalogArrayRejected)
{
    // An analog array that precedes any mapped stage has no defined
    // workload: the volume rule cannot seed it.
    Design d =
        spec::DesignBuilder("leading")
            .fps(30.0)
            .inputStage("Input", {8, 8, 1})
            .analogArray(
                {.name = "Unmapped",
                 .role = AnalogRole::Adc,
                 .numComponents = {8, 1, 1},
                 .component = {.kind = spec::ComponentKind::ColumnAdc}})
            .analogArray({.name = "Pixel",
                          .role = AnalogRole::Sensing,
                          .numComponents = {8, 8, 1},
                          .component = kDps8})
            .mipi()
            .map("Input", "Pixel")
            .build();
    EXPECT_THROW(d.simulate(), ConfigError);
}

TEST(Design, SystolicNeedsExactlyOneInputBuffer)
{
    Design d = spec::DesignBuilder("sys2")
                   .fps(30.0)
                   .digitalClock(50e6)
                   .inputStage("Input", {16, 16, 1})
                   .stage({.name = "Conv",
                           .op = StageOp::Conv2d,
                           .inputSize = {16, 16, 1},
                           .outputSize = {14, 14, 4},
                           .kernel = {3, 3, 1},
                           .stride = {1, 1, 1}},
                          {"Input"})
                   .analogArray({.name = "Pixel",
                                 .role = AnalogRole::Sensing,
                                 .numComponents = {16, 16, 1},
                                 .component = kDps8})
                   .sram("A", Layer::Sensor, MemoryKind::Fifo, 512, 8, 65,
                         1.0)
                   .sram("B", Layer::Sensor, MemoryKind::Fifo, 512, 8, 65,
                         1.0)
                   .systolicArray({.name = "Sa",
                                   .rows = 4,
                                   .cols = 4,
                                   .energyPerMac = 1e-12},
                                  {"A", "B"}) // second buffer: rejected
                   .adcOutput("A")
                   .mipi()
                   .map("Input", "Pixel")
                   .map("Conv", "Sa")
                   .build();
    EXPECT_THROW(d.simulate(), ConfigError);
}

TEST(Design, ResidentInputDoesNotBecomeTheOutput)
{
    // A design whose last-added stage is a resident-data Input (the
    // Rhythmic RegionState pattern): the pipeline output must still
    // be the processing sink, not the resident input.
    Design d = Fig5Builder{}
                   .builder()
                   .inputStage("Resident", {4, 4, 1})
                   .map("Resident", "LineBuffer")
                   .build();
    EnergyReport r = d.simulate();
    EXPECT_EQ(r.mipiBytes, 196); // the 14x14 edge map, unchanged
}

// -------------------------------------------------------------- stalls

TEST(Design, UndersizedBufferStallsPipeline)
{
    // A high frame rate pushes the ADC rate above what the edge unit
    // drains through a tiny line buffer: Sec. 4.1 stall -> fatal.
    Fig5Builder b;
    b.line_buffer_words = 4;
    b.fps = 25000.0; // extreme, but digital still fits
    Design d = b.build();
    EXPECT_THROW(
        {
            try {
                d.simulate();
            } catch (const ConfigError &e) {
                EXPECT_NE(std::string(e.what()).find("stall"),
                          std::string::npos);
                throw;
            }
        },
        ConfigError);
}

// ------------------------------------------------------ failure texts

/** One failing design and the outcome it must be reported with. */
struct FailureRow
{
    const char *name;
    spec::DesignSpec spec;
    const char *ruleCode;
    const char *error;
};

TEST(Design, StageFailureTextsArePinned)
{
    // The texts of the failures the Map, Analog, Digital and Energy
    // stages raise from a design's mapping, wiring and links, as a
    // sweep reports them.
    using S = spec::DesignSpec;
    auto detector = [](void (*edit)(S &)) {
        S s = spec::sampleDetectorSpec(30.0, 65);
        edit(s);
        return s;
    };
    const FailureRow rows[] = {
        {"unmapped stage (Map)",
         detector([](S &s) { s.mapping.pop_back(); }), "CAMJ-E008",
         "fatal: Design detector-65nm-30fps: stage 'Classify' is not "
         "mapped to hardware"},
        {"non-Input stage on a memory (Map)",
         detector([](S &s) { s.mapping[1].second = "ActBuf"; }),
         "CAMJ-E008",
         "fatal: Design detector-65nm-30fps: only Input stages may map "
         "onto a memory ('Bin' -> 'ActBuf')"},
        {"unmapped leading analog array (Analog)", detector([](S &s) {
             s.mapping[0].second = "Adc";
             s.mapping[1].second = "Adc";
         }),
         "CAMJ-E008",
         "fatal: Design detector-65nm-30fps: analog array 'PixelArray' "
         "precedes any mapped stage; map the Input stage to the pixel "
         "array"},
        {"no adc output (Digital)",
         detector([](S &s) { s.adcOutputMemory.clear(); }), "CAMJ-E012",
         "fatal: Design detector-65nm-30fps: digital units exist but no "
         "adcOutputMemory is configured"},
        {"unit without an input memory (Digital)",
         detector([](S &s) { s.units[0].inputMemories.clear(); }),
         "CAMJ-E012",
         "fatal: Design detector-65nm-30fps: unit 'Classifier' has no "
         "input memory"},
        {"no MIPI (Energy)",
         detector([](S &s) { s.mipi.present = false; }), "CAMJ-E016",
         "fatal: Design detector-65nm-30fps: 4 B cross the package "
         "boundary but no MIPI interface is configured"},
        {"stacked without a uTSV (Energy)", stackedSpec(false),
         "CAMJ-E016",
         "fatal: Design stacked: 1024 B cross between stacked layers but "
         "no uTSV interface is configured"},
    };
    SimulationOptions options;
    options.checkMode = CheckMode::Report;
    const Simulator simulator(options);
    for (const FailureRow &row : rows) {
        SCOPED_TRACE(row.name);
        const SimulationOutcome out = simulator.run(row.spec);
        EXPECT_FALSE(out.feasible);
        EXPECT_EQ(out.ruleCode, row.ruleCode);
        EXPECT_EQ(out.error, row.error);
    }
}

} // namespace
} // namespace camj

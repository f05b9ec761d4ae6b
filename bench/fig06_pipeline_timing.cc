/**
 * @file
 * Fig. 6: the pipeline timing of the Fig. 5 running example. CamJ's
 * delay estimation derives the analog unit time from the FPS target:
 * with two analog units (binned readout + ADC) and the edge-detection
 * digital latency T_D, the relation 3 x T_A + T_D = T_FR holds.
 */

#include <cstdio>

#include "spec/builder.h"

using namespace camj;

namespace
{

Design
fig5Design(double fps)
{
    return spec::DesignBuilder("fig5")
        .fps(fps)
        .digitalClock(10e6)
        .inputStage("Input", {32, 32, 1})
        .stage({.name = "Binning",
                .op = StageOp::Binning,
                .inputSize = {32, 32, 1},
                .outputSize = {16, 16, 1},
                .kernel = {2, 2, 1},
                .stride = {2, 2, 1}},
               {"Input"})
        .stage({.name = "EdgeDetection",
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
                                    .aps = {.pixelsPerComponent = 4}}})
        .analogArray({.name = "ADCArray",
                      .role = AnalogRole::Adc,
                      .numComponents = {16, 1, 1},
                      .inputShape = {1, 16, 1},
                      .outputShape = {1, 16, 1},
                      .componentArea = 1e-9,
                      .component = {.kind = spec::ComponentKind::ColumnAdc,
                                    .adc = {.bits = 10}}})
        .sram("LineBuffer", Layer::Sensor, MemoryKind::LineBuffer, 48, 8,
              65, 1.0)
        .computeUnit({.name = "EdgeUnit",
                      .layer = Layer::Sensor,
                      .inputPixelsPerCycle = {1, 3, 1},
                      .outputPixelsPerCycle = {1, 1, 1},
                      .energyPerCycle = 3e-12,
                      .numStages = 2,
                      .opsPerCycle = 9},
                     {"LineBuffer"})
        .adcOutput("LineBuffer")
        .mipi()
        .map("Input", "PixelArray")
        .map("Binning", "PixelArray")
        .map("EdgeDetection", "EdgeUnit")
        .build();
}

} // namespace

int
main()
{
    setLoggingEnabled(false);
    std::printf("Fig. 6 | Delay estimation for the Fig. 5 example\n");
    std::printf("%-8s %12s %12s %12s %10s %14s\n", "FPS", "T_FR",
                "T_D", "T_A", "slots", "N*T_A+T_D");

    for (double fps : {15.0, 30.0, 60.0, 120.0, 480.0}) {
        EnergyReport r = fig5Design(fps).simulate();
        double lhs = r.numAnalogSlots * r.analogUnitTime +
                     r.digitalLatency;
        std::printf("%-8.0f %12s %12s %12s %10d %14s\n", fps,
                    formatTime(r.frameTime).c_str(),
                    formatTime(r.digitalLatency).c_str(),
                    formatTime(r.analogUnitTime).c_str(),
                    r.numAnalogSlots, formatTime(lhs).c_str());
    }

    std::printf("\nshape check: two analog units give 3 slots and the "
                "identity 3*T_A + T_D = T_FR holds at every FPS "
                "[as in the paper's Fig. 6]\n");
    return 0;
}

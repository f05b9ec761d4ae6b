/**
 * @file
 * Fig. 2: the CIS architecture evolution — (a) traditional 2D
 * imaging CIS, (b) analog in-sensor processing, (c) digital
 * in-sensor processing, (d) stacked computational CIS — plus the
 * three-layer pixel/DRAM/logic stack of Sec. 2.1 (Sony IMX400
 * class), all evaluated on one 640x480 feature-extraction workload.
 * Expected shape: each architecture step trades MIPI volume against
 * on-sensor compute/memory energy, and the stacked variants shrink
 * the compute tax.
 */

#include <cstdio>

#include "common/units.h"
#include "memmodel/dram.h"
#include "spec/builder.h"
#include "tech/process_node.h"
#include "tech/scaling.h"
#include "usecases/explorer.h"

using namespace camj;

namespace
{

constexpr int64_t kWidth = 640, kHeight = 480;
constexpr double kFps = 30.0;

/** The pixel array, an optional analog MAC row and the column ADCs,
 *  with the feature-extraction workload and a MIPI link. */
spec::DesignBuilder
frontEnd(const char *name, bool analog_conv)
{
    spec::DesignBuilder b(name);
    b.fps(kFps)
        .digitalClock(100e6)
        .inputStage("Input", {kWidth, kHeight, 1})
        .stage({.name = "Feature",
                .op = StageOp::Conv2d,
                .inputSize = {kWidth, kHeight, 1},
                .outputSize = {319, 239, 1},
                .kernel = {4, 4, 1},
                .stride = {2, 2, 1}},
               {"Input"})
        .analogArray({.name = "PixelArray",
                      .role = AnalogRole::Sensing,
                      .numComponents = {kWidth, kHeight, 1},
                      .inputShape = {1, kWidth, 1},
                      .outputShape = {1, kWidth, 1},
                      .componentArea = 9.0 * units::um2,
                      .component = {.kind = spec::ComponentKind::Aps4T,
                                    .aps = {.vdda = nodeParams(65).vdda}}});
    if (analog_conv) {
        b.analogArray(
            {.name = "AnalogMac",
             .role = AnalogRole::AnalogCompute,
             .numComponents = {kWidth, 1, 1},
             .inputShape = {1, kWidth, 1},
             .outputShape = {1, kWidth, 1},
             .componentArea = 2e-10,
             .component = {.kind = spec::ComponentKind::SwitchedCapMac}});
    }
    b.analogArray({.name = "Adc",
                   .role = AnalogRole::Adc,
                   .numComponents = {kWidth, 1, 1},
                   .inputShape = {1, kWidth, 1},
                   .outputShape = {1, kWidth, 1},
                   .componentArea = 1e-9,
                   .component = {.kind = spec::ComponentKind::ColumnAdc,
                                 .adc = {.bits = 8}}})
        .mipi()
        .map("Input", "PixelArray");
    return b;
}

/** The 4x4 convolution unit on @p layer, fed by the ADC. */
ComputeUnitParams
convUnit(Layer layer, int nm)
{
    return {.name = "ConvUnit",
            .layer = layer,
            .inputPixelsPerCycle = {4, 4, 1},
            .outputPixelsPerCycle = {1, 1, 1},
            .energyPerCycle = 16.0 * macEnergy8bit(nm),
            .numStages = 4,
            .opsPerCycle = 16};
}

/** Digital feature extraction behind a line buffer on @p layer. */
spec::DesignBuilder
digitalConv(const char *name, Layer layer, int nm)
{
    spec::DesignBuilder b = frontEnd(name, false);
    b.sram("LineBuf", layer, MemoryKind::LineBuffer, 4 * kWidth, 8, nm,
           0.5)
        .computeUnit(convUnit(layer, nm), {"LineBuf"})
        .adcOutput("LineBuf")
        .map("Feature", "ConvUnit");
    return b;
}

/** (a) Imaging-only: full frame out, feature extraction on the SoC. */
Design
imagingOnly()
{
    return digitalConv("fig2a-imaging", Layer::OffChip, 22).build();
}

/** (b) Analog in-sensor processing. */
Design
analogCompute()
{
    return frontEnd("fig2b-analog", true)
        .map("Feature", "AnalogMac")
        .pipelineOutputBytes(319 * 239)
        .build();
}

/** (c) Digital in-sensor processing on the sensor die. */
Design
digitalCompute()
{
    return digitalConv("fig2c-digital", Layer::Sensor, 65)
        .pipelineOutputBytes(319 * 239)
        .build();
}

/** (d) Two-layer stack: digital processing on a 22 nm die. */
Design
stackedCompute()
{
    return digitalConv("fig2d-stacked", Layer::Compute, 22)
        .tsv()
        .pipelineOutputBytes(319 * 239)
        .build();
}

/** Three-layer pixel/DRAM/logic stack (IMX400 class): the frame is
 *  buffered in a stacked DRAM die between readout and processing. */
Design
threeLayerDram()
{
    // Middle DRAM die as the frame store; model its per-access
    // energy with the DRAMPower-substitute numbers.
    DramParams dp;
    return frontEnd("fig2e-3layer-dram", false)
        .memory({.name = "DramFrameStore",
                 .layer = Layer::Dram,
                 .kind = MemoryKind::FrameBuffer,
                 .model = spec::MemoryModel::Explicit,
                 .capacityWords = kWidth * kHeight,
                 .wordBits = 8,
                 // self-refresh outside the burst window
                 .activeFraction = 0.25,
                 .readEnergyPerWord = dp.readBurstEnergy / dp.burstBytes,
                 .writeEnergyPerWord =
                     dp.writeBurstEnergy / dp.burstBytes,
                 .leakagePower = dp.backgroundPower,
                 .readPorts = 2,
                 .writePorts = 2,
                 .area = 4.0e-6}) // a small DRAM die
        .computeUnit(convUnit(Layer::Compute, 22), {"DramFrameStore"})
        .adcOutput("DramFrameStore")
        .tsv()
        .map("Feature", "ConvUnit")
        .pipelineOutputBytes(319 * 239)
        .build();
}

} // namespace

int
main()
{
    setLoggingEnabled(false);
    std::printf("Fig. 2 | CIS architecture evolution on one "
                "640x480 feature-extraction workload\n\n");

    std::vector<BreakdownRow> rows;
    for (const Design &d :
         {imagingOnly(), analogCompute(), digitalCompute(),
          stackedCompute(), threeLayerDram()}) {
        EnergyReport r = d.simulate();
        rows.push_back(breakdownOf(r.designName, r));
    }
    std::printf("%s", formatBreakdownTable(rows).c_str());

    std::printf("\nshape check: every in-sensor variant cuts the "
                "MIPI column vs (a); the stacked variants (d)/(e) "
                "cut the COMP-D column vs (c). The three-layer "
                "DRAM stack pays heavily in MEM-D background power — "
                "consistent with such sensors existing for burst "
                "capture (960 fps slow-mo), not for energy "
                "efficiency [the Sec. 2 design-trend argument]\n");
    return 0;
}

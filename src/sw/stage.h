/**
 * @file
 * Algorithm stages: the nodes of the software DAG.
 *
 * Following Sec. 3.3 of the paper, an algorithm is described *without*
 * arithmetic detail: every stage is a stencil operation characterized
 * by its input/output image dimensions, stencil window (kernel) and
 * stride. From these CamJ derives operation and access counts
 * analytically; src/functional cross-checks the formulas by actually
 * executing the stages on pixel buffers.
 */

#ifndef CAMJ_SW_STAGE_H
#define CAMJ_SW_STAGE_H

#include <cstdint>
#include <string>

#include "common/shape.h"

namespace camj
{

/** The kinds of stencil operations the algorithm DAG can express. */
enum class StageOp
{
    /** Raw pixel source (the paper's PixelInput). */
    Input,
    /** Average pooling over non-overlapping tiles ("pixel binning"). */
    Binning,
    /** 2D convolution; kernel = [kw, kh, cin], one output channel set. */
    Conv2d,
    /** Depthwise 2D convolution. */
    DepthwiseConv2d,
    /** Fully-connected layer; every output reads every input. */
    FullyConnected,
    /** Max pooling. */
    MaxPool,
    /** Average pooling. */
    AvgPool,
    /** Two-input elementwise subtraction. */
    ElementwiseSub,
    /** Two-input elementwise addition. */
    ElementwiseAdd,
    /** Two-input elementwise absolute difference. */
    AbsDiff,
    /** One-input thresholding / comparison against a constant. */
    Threshold,
    /** One-input scaling by a constant. */
    Scale,
    /** One-input logarithmic response. */
    LogResponse,
    /** One-input absolute value. */
    Absolute,
    /**
     * Region-of-interest encoder in the style of Rhythmic Pixel
     * Regions' Compare & Sample unit: per-pixel compare plus
     * bookkeeping; ops per output configurable via
     * StageParams::opsPerOutputOverride.
     */
    CompareSample,
    /** Pure data movement (readout, reformat). */
    Identity,
};

/** Human-readable name of a StageOp. */
const char *stageOpName(StageOp op);

/** Number of image inputs a StageOp consumes (1 or 2). */
int stageOpArity(StageOp op);

/** True for ops whose output shape follows the stencil formula. */
bool stageOpIsStencil(StageOp op);

/** Construction parameters for Stage. */
struct StageParams
{
    std::string name;
    StageOp op = StageOp::Identity;
    /** Primary input dimensions (ignored for Input stages). */
    Shape inputSize;
    /** Output dimensions. */
    Shape outputSize;
    /** Stencil window; meaningful for stencil ops. */
    Shape kernel = {1, 1, 1};
    /** Stencil stride; meaningful for stencil ops. */
    Shape stride = {1, 1, 1};
    /** Data resolution in bits (pixel/activation precision). */
    int bitDepth = 8;
    /**
     * Override the per-output operation count for ops with
     * workload-specific cost (CompareSample). 0 keeps the default.
     */
    int64_t opsPerOutputOverride = 0;

    bool operator==(const StageParams &) const = default;
};

/**
 * One node of the algorithm DAG. Immutable after construction; graph
 * wiring lives in SwGraph.
 */
class Stage
{
  public:
    /**
     * Validate and build a stage.
     *
     * @throws ConfigError if shapes are invalid or inconsistent with
     *         the stencil formula for stencil ops.
     */
    explicit Stage(StageParams params);

    const std::string &name() const { return params_.name; }
    StageOp op() const { return params_.op; }
    const Shape &inputSize() const { return params_.inputSize; }
    const Shape &outputSize() const { return params_.outputSize; }
    const Shape &kernel() const { return params_.kernel; }
    const Shape &stride() const { return params_.stride; }
    int bitDepth() const { return params_.bitDepth; }

    /** Number of image inputs (1, or 2 for elementwise two-input ops;
     *  0 for Input stages). */
    int numInputs() const;

    /** Number of output elements produced per frame. */
    int64_t outputsPerFrame() const;

    /** Arithmetic operations per output element. */
    int64_t opsPerOutput() const;

    /** Total arithmetic operations per frame (Eq. 3 numerator). */
    int64_t opsPerFrame() const;

    /**
     * Input element reads per frame assuming no inter-window reuse
     * (every stencil application reads its full window).
     */
    int64_t inputReadsPerFrame() const;

    /**
     * Distinct input elements touched per frame (ideal reuse, e.g.
     * through a line buffer each input is fetched once).
     */
    int64_t uniqueInputsPerFrame() const;

    /** Output bytes per frame at this stage's bit depth. */
    int64_t outputBytesPerFrame() const;

  private:
    StageParams params_;
};

} // namespace camj

#endif // CAMJ_SW_STAGE_H

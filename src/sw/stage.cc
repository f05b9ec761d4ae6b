#include "sw/stage.h"

#include "common/logging.h"

namespace camj
{

const char *
stageOpName(StageOp op)
{
    switch (op) {
      case StageOp::Input: return "Input";
      case StageOp::Binning: return "Binning";
      case StageOp::Conv2d: return "Conv2d";
      case StageOp::DepthwiseConv2d: return "DepthwiseConv2d";
      case StageOp::FullyConnected: return "FullyConnected";
      case StageOp::MaxPool: return "MaxPool";
      case StageOp::AvgPool: return "AvgPool";
      case StageOp::ElementwiseSub: return "ElementwiseSub";
      case StageOp::ElementwiseAdd: return "ElementwiseAdd";
      case StageOp::AbsDiff: return "AbsDiff";
      case StageOp::Threshold: return "Threshold";
      case StageOp::Scale: return "Scale";
      case StageOp::LogResponse: return "LogResponse";
      case StageOp::Absolute: return "Absolute";
      case StageOp::CompareSample: return "CompareSample";
      case StageOp::Identity: return "Identity";
    }
    panic("stageOpName: unknown op %d", static_cast<int>(op));
}

int
stageOpArity(StageOp op)
{
    switch (op) {
      case StageOp::Input:
        return 0;
      case StageOp::ElementwiseSub:
      case StageOp::ElementwiseAdd:
      case StageOp::AbsDiff:
        return 2;
      default:
        return 1;
    }
}

bool
stageOpIsStencil(StageOp op)
{
    switch (op) {
      case StageOp::Binning:
      case StageOp::Conv2d:
      case StageOp::DepthwiseConv2d:
      case StageOp::MaxPool:
      case StageOp::AvgPool:
        return true;
      default:
        return false;
    }
}

Stage::Stage(StageParams params)
    : params_(std::move(params))
{
    const StageParams &p = params_;
    if (p.name.empty())
        fatal(Rule::E005, "Stage: empty name");
    if (!p.outputSize.valid())
        fatal(Rule::E005, "Stage %s: invalid output size %s", p.name.c_str(),
              p.outputSize.str().c_str());
    if (p.bitDepth < 1 || p.bitDepth > 32)
        fatal(Rule::E005,
              "Stage %s: bit depth %d outside [1, 32]", p.name.c_str(),
              p.bitDepth);
    if (p.opsPerOutputOverride < 0)
        fatal(Rule::E005, "Stage %s: negative ops-per-output override",
              p.name.c_str());

    if (p.op == StageOp::Input)
        return;

    if (!p.inputSize.valid())
        fatal(Rule::E005, "Stage %s: invalid input size %s", p.name.c_str(),
              p.inputSize.str().c_str());

    if (stageOpIsStencil(p.op)) {
        if (!p.kernel.valid() || !p.stride.valid())
            fatal(Rule::E005,
                  "Stage %s: invalid kernel/stride", p.name.c_str());
        // Depthwise and pooling preserve the channel count; plain
        // convolution reduces kernel.channels input channels into each
        // output channel. Spatial dims must obey the stencil formula.
        int64_t ow = stencilOutputExtent(p.inputSize.width,
                                         p.kernel.width, p.stride.width);
        int64_t oh = stencilOutputExtent(p.inputSize.height,
                                         p.kernel.height, p.stride.height);
        if (ow != p.outputSize.width || oh != p.outputSize.height) {
            fatal(Rule::E005,
                  "Stage %s: output %s inconsistent with stencil of "
                  "input %s kernel %s stride %s (expect %lldx%lld "
                  "spatially)",
                  p.name.c_str(), p.outputSize.str().c_str(),
                  p.inputSize.str().c_str(), p.kernel.str().c_str(),
                  p.stride.str().c_str(), static_cast<long long>(ow),
                  static_cast<long long>(oh));
        }
        if (p.op == StageOp::Conv2d &&
            p.kernel.channels != p.inputSize.channels) {
            fatal(Rule::E005,
                  "Stage %s: conv kernel depth %lld != input channels "
                  "%lld", p.name.c_str(),
                  static_cast<long long>(p.kernel.channels),
                  static_cast<long long>(p.inputSize.channels));
        }
        if ((p.op == StageOp::DepthwiseConv2d ||
             p.op == StageOp::MaxPool || p.op == StageOp::AvgPool ||
             p.op == StageOp::Binning) &&
            p.outputSize.channels != p.inputSize.channels) {
            fatal(Rule::E005,
                  "Stage %s: %s must preserve channels (%lld -> %lld)",
                  p.name.c_str(), stageOpName(p.op),
                  static_cast<long long>(p.inputSize.channels),
                  static_cast<long long>(p.outputSize.channels));
        }
    } else if (stageOpArity(p.op) >= 1 && p.op != StageOp::FullyConnected &&
               p.op != StageOp::CompareSample) {
        // Elementwise and unary ops preserve the shape.
        if (p.inputSize != p.outputSize)
            fatal(Rule::E005,
                  "Stage %s: %s requires equal input/output shapes "
                  "(%s vs %s)", p.name.c_str(), stageOpName(p.op),
                  p.inputSize.str().c_str(), p.outputSize.str().c_str());
    }
}

int
Stage::numInputs() const
{
    return stageOpArity(params_.op);
}

int64_t
Stage::outputsPerFrame() const
{
    return params_.outputSize.count();
}

int64_t
Stage::opsPerOutput() const
{
    if (params_.opsPerOutputOverride > 0)
        return params_.opsPerOutputOverride;

    switch (params_.op) {
      case StageOp::Input:
      case StageOp::Identity:
        return 0;
      case StageOp::Binning:
      case StageOp::AvgPool:
      case StageOp::MaxPool:
      case StageOp::DepthwiseConv2d:
        return params_.kernel.width * params_.kernel.height;
      case StageOp::Conv2d:
        return params_.kernel.count();
      case StageOp::FullyConnected:
        return params_.inputSize.count();
      case StageOp::ElementwiseSub:
      case StageOp::ElementwiseAdd:
      case StageOp::AbsDiff:
      case StageOp::Threshold:
      case StageOp::Scale:
      case StageOp::LogResponse:
      case StageOp::Absolute:
      case StageOp::CompareSample:
        return 1;
    }
    panic("opsPerOutput: unknown op %d", static_cast<int>(params_.op));
}

int64_t
Stage::opsPerFrame() const
{
    return outputsPerFrame() * opsPerOutput();
}

int64_t
Stage::inputReadsPerFrame() const
{
    switch (params_.op) {
      case StageOp::Input:
        return 0;
      case StageOp::ElementwiseSub:
      case StageOp::ElementwiseAdd:
      case StageOp::AbsDiff:
        return 2 * outputsPerFrame();
      case StageOp::FullyConnected:
        return outputsPerFrame() * params_.inputSize.count();
      case StageOp::Threshold:
      case StageOp::Scale:
      case StageOp::LogResponse:
      case StageOp::Absolute:
      case StageOp::Identity:
      case StageOp::CompareSample:
        return params_.inputSize.count();
      case StageOp::Binning:
      case StageOp::AvgPool:
      case StageOp::MaxPool:
      case StageOp::DepthwiseConv2d:
        return outputsPerFrame() * params_.kernel.width *
               params_.kernel.height;
      case StageOp::Conv2d:
        // Every output element reads its full kw*kh*cin window.
        return outputsPerFrame() * params_.kernel.count();
    }
    panic("inputReadsPerFrame: unknown op %d",
          static_cast<int>(params_.op));
}

int64_t
Stage::uniqueInputsPerFrame() const
{
    if (params_.op == StageOp::Input)
        return 0;
    int64_t n = params_.inputSize.count();
    if (stageOpArity(params_.op) == 2)
        n *= 2;
    return n;
}

int64_t
Stage::outputBytesPerFrame() const
{
    return (outputsPerFrame() * params_.bitDepth + 7) / 8;
}

} // namespace camj

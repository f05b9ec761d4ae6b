#include "analog/afa.h"

#include <cmath>

#include "common/logging.h"

namespace camj
{

AnalogArray::AnalogArray(AnalogArrayParams params, AComponent component)
    : params_(std::move(params)), component_(std::move(component))
{
    if (params_.name.empty())
        fatal(Rule::E014, "AnalogArray: empty name");
    if (!params_.numComponents.valid())
        fatal(Rule::E014, "AnalogArray %s: invalid component count %s",
              params_.name.c_str(), params_.numComponents.str().c_str());
    if (!params_.inputShape.valid() || !params_.outputShape.valid())
        fatal(Rule::E014, "AnalogArray %s: invalid input/output shape",
              params_.name.c_str());
    if (params_.componentArea < 0.0)
        fatal(Rule::E014, "AnalogArray %s: negative component area",
              params_.name.c_str());
    if (component_.numCells() == 0)
        fatal(Rule::E014, "AnalogArray %s: component '%s' has no cells",
              params_.name.c_str(), component_.name().c_str());
}

double
AnalogArray::accessesPerComponent(int64_t ops) const
{
    if (ops < 0)
        fatal(Rule::E014,
              "AnalogArray %s: negative op count", params_.name.c_str());
    return static_cast<double>(ops) /
           static_cast<double>(params_.numComponents.count());
}

AnalogArrayEnergy
AnalogArray::energyPerFrame(int64_t ops, Time unit_time,
                            Time frame_time) const
{
    if (ops < 0)
        fatal(Rule::E014,
              "AnalogArray %s: negative op count", params_.name.c_str());
    if (unit_time <= 0.0 || frame_time <= 0.0)
        fatal(Rule::E014, "AnalogArray %s: non-positive time budget",
              params_.name.c_str());

    AnalogArrayEnergy result;
    result.accessesPerComponent = accessesPerComponent(ops);

    // Each component performs its accesses sequentially within the
    // array's time slot; one op gets slot / ceil(accesses).
    double serial_ops = std::max(1.0,
                                 std::ceil(result.accessesPerComponent));
    result.opDelay = unit_time / serial_ops;

    ComponentTiming timing;
    timing.opDelay = result.opDelay;
    timing.frameTime = frame_time;

    if (ops > 0) {
        result.perOpPart = component_.energyPerOp(timing) *
                           static_cast<double>(ops);
    }
    result.perFramePart =
        component_.energyPerFramePerComponent(timing) *
        static_cast<double>(params_.numComponents.count());
    result.total = result.perOpPart + result.perFramePart;
    return result;
}

Area
AnalogArray::area() const
{
    return params_.componentArea *
           static_cast<double>(params_.numComponents.count());
}

} // namespace camj

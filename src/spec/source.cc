#include "spec/source.h"

#include "common/logging.h"

namespace camj::spec
{

void
SpecSource::pointAt(size_t index, SpecPoint &point) const
{
    point.spec = at(index);
    point.built.reset();
    point.sourceId = 0;
}

DesignSpec
VectorSpecSource::at(size_t index) const
{
    if (index >= specs_.size())
        fatal("VectorSpecSource: point %zu out of range (%zu points)",
              index, specs_.size());
    return specs_[index];
}

GeneratorSpecSource::GeneratorSpecSource(Generator generate,
                                         size_t points)
    : generate_(std::move(generate)), points_(points)
{
    if (!generate_)
        fatal("GeneratorSpecSource: null generator function");
}

DesignSpec
GeneratorSpecSource::at(size_t index) const
{
    if (index >= points_)
        fatal("GeneratorSpecSource: point %zu out of range (%zu "
              "points)", index, points_);
    std::optional<DesignSpec> spec;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spec = generate_(index);
    }
    if (!spec)
        fatal("GeneratorSpecSource: the generator gave no point %zu "
              "of its %zu", index, points_);
    return std::move(*spec);
}

} // namespace camj::spec

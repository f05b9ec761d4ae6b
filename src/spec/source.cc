#include "spec/source.h"

#include "common/logging.h"

namespace camj::spec
{

std::optional<DesignSpec>
SpecSource::nextIndexed(size_t &)
{
    panic("SpecSource: nextIndexed() called on a source that does "
          "not support concurrent pulls");
}

bool
SpecSource::nextPoint(size_t &index, SpecPoint &point)
{
    std::optional<DesignSpec> spec = nextIndexed(index);
    if (!spec)
        return false;
    point.spec = std::move(*spec);
    point.built.reset();
    return true;
}

void
IndexableSpecSource::pointAt(size_t index, SpecPoint &point) const
{
    point.spec = at(index);
    point.built.reset();
}

std::optional<DesignSpec>
VectorSpecSource::next()
{
    size_t index = 0;
    return nextIndexed(index);
}

std::optional<DesignSpec>
VectorSpecSource::nextIndexed(size_t &index)
{
    const size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= specs_.size())
        return std::nullopt;
    index = i;
    return specs_[i];
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
                                         std::optional<size_t> size_hint)
    : generate_(std::move(generate)), hint_(size_hint)
{
    if (!generate_)
        fatal("GeneratorSpecSource: null generator function");
}

std::optional<DesignSpec>
GeneratorSpecSource::next()
{
    if (done_)
        return std::nullopt;
    if (hint_ && cursor_ >= *hint_) {
        done_ = true;
        return std::nullopt;
    }
    std::optional<DesignSpec> spec = generate_(cursor_);
    if (!spec) {
        done_ = true;
        return std::nullopt;
    }
    ++cursor_;
    return spec;
}

} // namespace camj::spec

/**
 * @file
 * Tensor/array shape descriptors shared by the algorithm description
 * (stage input/output/kernel/stride sizes) and the hardware description
 * (array dimensions, per-cycle I/O shapes).
 */

#ifndef CAMJ_COMMON_SHAPE_H
#define CAMJ_COMMON_SHAPE_H

#include <cstdint>
#include <string>

#include "common/logging.h"

namespace camj
{

/**
 * A (width x height x channels) shape. Follows the paper's convention
 * of describing images and stencils as up-to-3D sizes; 1D and 2D uses
 * set the remaining dimensions to 1.
 */
struct Shape
{
    int64_t width = 1;
    int64_t height = 1;
    int64_t channels = 1;

    constexpr Shape() = default;

    constexpr Shape(int64_t w, int64_t h = 1, int64_t c = 1)
        : width(w), height(h), channels(c)
    {}

    /** Total number of elements. */
    constexpr int64_t count() const { return width * height * channels; }

    constexpr bool
    operator==(const Shape &o) const
    {
        return width == o.width && height == o.height &&
               channels == o.channels;
    }

    constexpr bool operator!=(const Shape &o) const { return !(*this == o); }

    /** True iff every dimension is >= 1. */
    constexpr bool
    valid() const
    {
        return width >= 1 && height >= 1 && channels >= 1;
    }

    /** Render as "WxHxC". */
    std::string
    str() const
    {
        return std::to_string(width) + "x" + std::to_string(height) + "x" +
               std::to_string(channels);
    }
};

/**
 * Number of stencil output positions along one axis.
 *
 * @param input Input extent.
 * @param kernel Stencil extent (must fit in the input).
 * @param stride Step between applications.
 */
inline int64_t
stencilOutputExtent(int64_t input, int64_t kernel, int64_t stride)
{
    if (kernel < 1 || stride < 1)
        fatal(Rule::E005,
              "stencil: kernel/stride must be >= 1 (got %lld, %lld)",
              static_cast<long long>(kernel),
              static_cast<long long>(stride));
    if (kernel > input)
        fatal(Rule::E005, "stencil: kernel %lld larger than input %lld",
              static_cast<long long>(kernel),
              static_cast<long long>(input));
    return (input - kernel) / stride + 1;
}

} // namespace camj

#endif // CAMJ_COMMON_SHAPE_H

#include "memmodel/sram.h"

#include <cmath>

#include "common/logging.h"
#include "tech/process_node.h"
#include "tech/scaling.h"

namespace camj
{

namespace
{

// 65 nm anchors. Per-bit dynamic read energy:
//   e_bit = readBitBase + readBitSqrt * sqrt(total_bits)
constexpr Energy readBitBase65 = 45e-15;
constexpr Energy readBitSqrt65 = 0.2e-15;

// Writes drive both bitlines rail-to-rail; slightly costlier.
constexpr double writeFactor = 1.15;

// 6T bit cell area at 65 nm and array area efficiency.
constexpr Area bitcellArea65 = 0.525e-12;
constexpr double arrayEfficiency = 0.7;

} // namespace

MemoryCharacteristics
sramModel(int64_t capacity_bytes, int word_bits, int nm)
{
    if (capacity_bytes <= 0)
        fatal(Rule::E013, "sramModel: capacity must be positive (got %lld B)",
              static_cast<long long>(capacity_bytes));
    if (word_bits < 1 || word_bits > 1024)
        fatal(Rule::E013,
              "sramModel: word width %d outside [1, 1024] bits", word_bits);

    const double bits = static_cast<double>(capacity_bytes) * 8.0;
    if (static_cast<double>(word_bits) > bits)
        fatal(Rule::E013, "sramModel: word (%d b) wider than the array (%g b)",
              word_bits, bits);

    const NodeParams node = nodeParams(nm);

    Energy read_bit_65 = readBitBase65 + readBitSqrt65 * std::sqrt(bits);
    Energy read_word_65 = read_bit_65 * word_bits;

    MemoryCharacteristics mc;
    mc.capacityBytes = capacity_bytes;
    mc.wordBits = word_bits;
    mc.readEnergyPerWord = scaleEnergy(read_word_65, 65, nm);
    mc.writeEnergyPerWord = mc.readEnergyPerWord * writeFactor;
    mc.leakagePower = bits * node.sramLeakPerBit;
    mc.area = bits * scaleArea(bitcellArea65, 65, nm) / arrayEfficiency;
    return mc;
}

} // namespace camj

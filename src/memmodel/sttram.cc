#include "memmodel/sttram.h"

#include <cmath>

#include "common/logging.h"
#include "tech/process_node.h"
#include "tech/scaling.h"

namespace camj
{

namespace
{

// 65 nm anchors. Reads sense a resistive state: cheap and nearly
// capacity-independent; writes must flip the magnetic tunnel junction.
constexpr Energy readBitBase65 = 35e-15;
constexpr Energy readBitSqrt65 = 0.02e-15;
constexpr Energy writeBit65 = 0.9e-12;

// The MTJ write current does not scale with logic voltage; writes
// improve only mildly with node.
constexpr double writeNodeExponent = 0.35;

// Peripheral (decoder/sense-amp) leakage as a fraction of what an
// equal-capacity SRAM would leak; the cell array itself retains state
// with no supply.
constexpr double peripheralLeakFraction = 0.02;

// 1T-1MTJ cell ~= 40 F^2.
constexpr double cellAreaF2 = 40.0;

} // namespace

MemoryCharacteristics
sttramModel(int64_t capacity_bytes, int word_bits, int nm)
{
    if (capacity_bytes < sttramMinCapacityBytes)
        fatal(Rule::E013,
              "sttramModel: %lld B below the 4 KB minimum "
              "(NVMExplorer-compatible limitation)",
              static_cast<long long>(capacity_bytes));
    if (word_bits < 1 || word_bits > 1024)
        fatal(Rule::E013, "sttramModel: word width %d outside [1, 1024] bits",
              word_bits);

    const double bits = static_cast<double>(capacity_bytes) * 8.0;
    const NodeParams node = nodeParams(nm);

    Energy read_bit_65 = readBitBase65 + readBitSqrt65 * std::sqrt(bits);

    MemoryCharacteristics mc;
    mc.capacityBytes = capacity_bytes;
    mc.wordBits = word_bits;
    mc.readEnergyPerWord = scaleEnergy(read_bit_65 * word_bits, 65, nm);
    mc.writeEnergyPerWord = writeBit65 * word_bits *
                            std::pow(static_cast<double>(nm) / 65.0,
                                     writeNodeExponent);
    mc.leakagePower = bits * node.sramLeakPerBit * peripheralLeakFraction;

    const double feature_m = static_cast<double>(nm) * 1e-9;
    mc.area = bits * cellAreaF2 * feature_m * feature_m / 0.7;
    return mc;
}

} // namespace camj

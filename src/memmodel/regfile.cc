#include "memmodel/regfile.h"

#include "common/logging.h"
#include "tech/process_node.h"
#include "tech/scaling.h"

namespace camj
{

namespace
{

// 65 nm anchors: flip-flop read is a mux traversal, write clocks the
// cell. Capacity-independent per-bit cost (no long bitlines), but a
// much larger cell than SRAM.
constexpr Energy readBit65 = 8e-15;
constexpr Energy writeBit65 = 14e-15;
constexpr Area cellArea65 = 4.5e-12;
constexpr double leakVsSramCell = 2.5;

} // namespace

MemoryCharacteristics
regfileModel(int64_t capacity_bytes, int word_bits, int nm)
{
    if (capacity_bytes <= 0 || capacity_bytes > 4096)
        fatal(Rule::E013, "regfileModel: capacity %lld B outside (0, 4096]",
              static_cast<long long>(capacity_bytes));
    if (word_bits < 1 || word_bits > 256)
        fatal(Rule::E013,
              "regfileModel: word width %d outside [1, 256]", word_bits);

    const double bits = static_cast<double>(capacity_bytes) * 8.0;
    const NodeParams node = nodeParams(nm);

    MemoryCharacteristics mc;
    mc.capacityBytes = capacity_bytes;
    mc.wordBits = word_bits;
    mc.readEnergyPerWord = scaleEnergy(readBit65 * word_bits, 65, nm);
    mc.writeEnergyPerWord = scaleEnergy(writeBit65 * word_bits, 65, nm);
    mc.leakagePower = bits * node.sramLeakPerBit * leakVsSramCell;
    mc.area = bits * scaleArea(cellArea65, 65, nm);
    return mc;
}

} // namespace camj

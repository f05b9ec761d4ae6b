#include "digital/dmemory.h"

#include "common/logging.h"
#include "memmodel/regfile.h"
#include "memmodel/sram.h"
#include "memmodel/sttram.h"

namespace camj
{

const char *
memoryKindName(MemoryKind kind)
{
    switch (kind) {
      case MemoryKind::Fifo: return "fifo";
      case MemoryKind::LineBuffer: return "line-buffer";
      case MemoryKind::DoubleBuffer: return "double-buffer";
      case MemoryKind::FrameBuffer: return "frame-buffer";
    }
    return "?";
}

DigitalMemory::DigitalMemory(DigitalMemoryParams params)
    : params_(std::move(params))
{
    if (params_.name.empty())
        fatal(Rule::E013, "DigitalMemory: empty name");
    if (params_.capacityWords <= 0)
        fatal(Rule::E013, "DigitalMemory %s: capacity must be positive",
              params_.name.c_str());
    if (params_.wordBits < 1 || params_.wordBits > 1024)
        fatal(Rule::E013, "DigitalMemory %s: word width %d outside [1, 1024]",
              params_.name.c_str(), params_.wordBits);
    if (params_.readEnergyPerWord < 0.0 ||
        params_.writeEnergyPerWord < 0.0 || params_.leakagePower < 0.0)
        fatal(Rule::E013, "DigitalMemory %s: negative energy/power",
              params_.name.c_str());
    if (params_.activeFraction < 0.0 || params_.activeFraction > 1.0)
        fatal(Rule::E013,
              "DigitalMemory %s: active fraction %g outside [0, 1]",
              params_.name.c_str(), params_.activeFraction);
    if (params_.readPorts < 1 || params_.writePorts < 1)
        fatal(Rule::E013, "DigitalMemory %s: ports must be >= 1",
              params_.name.c_str());
}

MemoryEnergy
DigitalMemory::energyPerFrame(int64_t reads, int64_t writes,
                              Time frame_time) const
{
    if (reads < 0 || writes < 0)
        fatal(Rule::E013, "DigitalMemory %s: negative access counts",
              params_.name.c_str());
    if (frame_time <= 0.0)
        fatal(Rule::E013, "DigitalMemory %s: non-positive frame time",
              params_.name.c_str());

    MemoryEnergy e;
    e.readPart = params_.readEnergyPerWord * static_cast<double>(reads);
    e.writePart = params_.writeEnergyPerWord *
                  static_cast<double>(writes);
    e.leakagePart = params_.leakagePower * frame_time *
                    params_.activeFraction;
    e.total = e.readPart + e.writePart + e.leakagePart;
    return e;
}

namespace
{

DigitalMemory
fromCharacteristics(const std::string &name, Layer layer,
                    MemoryKind kind, int64_t words, int word_bits,
                    const MemoryCharacteristics &mc,
                    double active_fraction)
{
    DigitalMemoryParams p;
    p.name = name;
    p.layer = layer;
    p.kind = kind;
    p.capacityWords = words;
    p.wordBits = word_bits;
    p.readEnergyPerWord = mc.readEnergyPerWord;
    p.writeEnergyPerWord = mc.writeEnergyPerWord;
    p.leakagePower = mc.leakagePower;
    p.activeFraction = active_fraction;
    p.area = mc.area;
    // Double buffering separates producer and consumer banks: give
    // them independent port groups.
    if (kind == MemoryKind::DoubleBuffer) {
        p.readPorts = 2;
        p.writePorts = 2;
    }
    return DigitalMemory(p);
}

int64_t
capacityBytes(int64_t words, int word_bits)
{
    return (words * word_bits + 7) / 8;
}

} // namespace

DigitalMemory
makeSramMemory(const std::string &name, Layer layer, MemoryKind kind,
               int64_t words, int word_bits, int nm,
               double active_fraction)
{
    if (words <= 0)
        fatal(Rule::E013, "makeSramMemory %s: capacity must be positive",
              name.c_str());
    MemoryCharacteristics mc =
        sramModel(capacityBytes(words, word_bits), word_bits, nm);
    return fromCharacteristics(name, layer, kind, words, word_bits, mc,
                               active_fraction);
}

DigitalMemory
makeSttramMemory(const std::string &name, Layer layer, MemoryKind kind,
                 int64_t words, int word_bits, int nm,
                 double active_fraction)
{
    if (words <= 0)
        fatal(Rule::E013, "makeSttramMemory %s: capacity must be positive",
              name.c_str());
    MemoryCharacteristics mc =
        sttramModel(capacityBytes(words, word_bits), word_bits, nm);
    return fromCharacteristics(name, layer, kind, words, word_bits, mc,
                               active_fraction);
}

DigitalMemory
makeRegfileMemory(const std::string &name, Layer layer,
                  MemoryKind kind, int64_t words, int word_bits,
                  int nm, double active_fraction)
{
    if (words <= 0)
        fatal(Rule::E013, "makeRegfileMemory %s: capacity must be positive",
              name.c_str());
    MemoryCharacteristics mc =
        regfileModel(capacityBytes(words, word_bits), word_bits, nm);
    return fromCharacteristics(name, layer, kind, words, word_bits, mc,
                               active_fraction);
}

} // namespace camj

#include "comm/interface.h"

#include "common/logging.h"

namespace camj
{

const char *
commKindName(CommKind kind)
{
    switch (kind) {
      case CommKind::MipiCsi2: return "MIPI-CSI2";
      case CommKind::MicroTsv: return "uTSV";
    }
    return "?";
}

CommInterface::CommInterface(std::string name, CommKind kind,
                             Energy energy_per_byte)
    : name_(std::move(name)), kind_(kind),
      energyPerByte_(energy_per_byte)
{
    if (name_.empty())
        fatal(Rule::E016, "CommInterface: empty name");
    if (energyPerByte_ <= 0.0)
        fatal(Rule::E016, "CommInterface %s: energy per byte must be positive",
              name_.c_str());
}

Energy
CommInterface::energyForBytes(int64_t bytes) const
{
    if (bytes < 0)
        fatal(Rule::E016,
              "CommInterface %s: negative byte count", name_.c_str());
    return energyPerByte_ * static_cast<double>(bytes);
}

CommInterface
makeMipiCsi2(Energy energy_per_byte)
{
    return CommInterface("MIPI-CSI2", CommKind::MipiCsi2,
                         energy_per_byte);
}

CommInterface
makeMicroTsv(Energy energy_per_byte)
{
    return CommInterface("uTSV", CommKind::MicroTsv, energy_per_byte);
}

} // namespace camj

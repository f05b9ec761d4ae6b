#include "analog/adc_fom.h"

#include <array>
#include <cmath>

#include "common/logging.h"

namespace camj
{

namespace
{

struct FomPoint { Frequency rate; Energy fomPerStep; };

// Median Walden FoM per conversion-step, reconstructed from the shape
// of the Murmann survey (see DESIGN.md Sec. 3): sub-MS/s designs are
// dominated by fixed overheads, the sweet spot sits around 1-100 MS/s,
// and GS/s designs pay steeply for speed.
constexpr std::array<FomPoint, 8> fomTable = {{
    { 1e2, 120e-15 },
    { 1e4, 55e-15 },
    { 1e6, 30e-15 },
    { 1e7, 28e-15 },
    { 1e8, 40e-15 },
    { 1e9, 110e-15 },
    { 1e10, 500e-15 },
    { 1e11, 2.5e-12 },
}};

} // namespace

Energy
waldenFomMedian(Frequency sample_rate)
{
    if (sample_rate <= 0.0 || sample_rate > 1e12)
        fatal(Rule::E015,
              "waldenFomMedian: sampling rate %g S/s outside (0, 1e12]",
              sample_rate);

    if (sample_rate <= fomTable.front().rate)
        return fomTable.front().fomPerStep;
    if (sample_rate >= fomTable.back().rate)
        return fomTable.back().fomPerStep;

    for (size_t i = 1; i < fomTable.size(); ++i) {
        if (sample_rate <= fomTable[i].rate) {
            const FomPoint &lo = fomTable[i - 1];
            const FomPoint &hi = fomTable[i];
            double t = (std::log(sample_rate) - std::log(lo.rate)) /
                       (std::log(hi.rate) - std::log(lo.rate));
            return std::exp(std::log(lo.fomPerStep) +
                            t * (std::log(hi.fomPerStep) -
                                 std::log(lo.fomPerStep)));
        }
    }
    panic("waldenFomMedian: table scan fell through for %g", sample_rate);
}

Energy
adcEnergyPerConversion(int bits, Frequency sample_rate)
{
    if (bits < 1 || bits > 16)
        fatal(Rule::E014,
              "adcEnergyPerConversion: resolution %d outside [1, 16]",
              bits);
    return waldenFomMedian(sample_rate) * std::pow(2.0, bits);
}

} // namespace camj

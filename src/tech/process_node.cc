#include "tech/process_node.h"

#include <array>
#include <cmath>

#include "common/logging.h"

namespace camj
{

namespace
{

// Table rows sorted by descending feature size. relEnergy/relArea are
// normalized to 65 nm. sramLeakPerBit is in watts per bit.
constexpr std::array<NodeParams, 14> nodeTable = {{
    // nm    vdd   vdda  relE   relA    leak/bit
    { 180, 1.80, 3.30, 5.10, 7.70, 0.020e-9 },
    { 130, 1.20, 2.80, 2.60, 4.00, 0.150e-9 },
    { 110, 1.20, 2.80, 1.90, 2.90, 0.350e-9 },
    {  90, 1.00, 2.50, 1.50, 1.90, 1.200e-9 },
    {  65, 1.00, 2.50, 1.00, 1.00, 4.000e-9 },
    {  45, 0.90, 2.50, 0.62, 0.48, 2.400e-9 },
    {  40, 0.90, 2.50, 0.55, 0.38, 2.100e-9 },
    {  32, 0.90, 2.50, 0.40, 0.24, 1.500e-9 },
    {  28, 0.85, 2.50, 0.33, 0.19, 1.000e-9 },
    {  22, 0.80, 2.50, 0.24, 0.115, 1.200e-9 },
    {  16, 0.75, 1.80, 0.16, 0.061, 0.500e-9 },
    {  14, 0.70, 1.80, 0.14, 0.046, 0.450e-9 },
    {  10, 0.65, 1.80, 0.09, 0.024, 0.400e-9 },
    {   7, 0.65, 1.80, 0.06, 0.012, 0.350e-9 },
}};

// Log-log interpolation between two strictly-positive samples.
double
loglogInterp(double x, double x0, double y0, double x1, double y1)
{
    double t = (std::log(x) - std::log(x0)) / (std::log(x1) - std::log(x0));
    return std::exp(std::log(y0) + t * (std::log(y1) - std::log(y0)));
}

// Linear interpolation in log(node) for quantities that may not be
// positive-definite ratios (supply voltages).
double
semilogInterp(double x, double x0, double y0, double x1, double y1)
{
    double t = (std::log(x) - std::log(x0)) / (std::log(x1) - std::log(x0));
    return y0 + t * (y1 - y0);
}

} // namespace

NodeParams
nodeParams(int nm)
{
    if (nm < 7 || nm > 250)
        fatal(Rule::E013,
              "process node %d nm outside supported range [7, 250]", nm);

    // Clamp above the largest table entry: treat >=180 nm as 180 nm
    // electrically (the paper's oldest validation node is 180 nm).
    if (nm >= nodeTable.front().nm) {
        NodeParams p = nodeTable.front();
        p.nm = nm;
        return p;
    }

    for (size_t i = 0; i < nodeTable.size(); ++i) {
        if (nodeTable[i].nm == nm)
            return nodeTable[i];
        if (nodeTable[i].nm < nm) {
            const NodeParams &hi = nodeTable[i - 1];
            const NodeParams &lo = nodeTable[i];
            NodeParams p;
            p.nm = nm;
            p.vdd = semilogInterp(nm, hi.nm, hi.vdd, lo.nm, lo.vdd);
            p.vdda = semilogInterp(nm, hi.nm, hi.vdda, lo.nm, lo.vdda);
            p.relEnergy = loglogInterp(nm, hi.nm, hi.relEnergy, lo.nm,
                                       lo.relEnergy);
            p.relArea = loglogInterp(nm, hi.nm, hi.relArea, lo.nm,
                                     lo.relArea);
            p.sramLeakPerBit = loglogInterp(nm, hi.nm, hi.sramLeakPerBit,
                                            lo.nm, lo.sramLeakPerBit);
            return p;
        }
    }
    return nodeTable.back(); // nm == 7 handled above; unreachable guard
}

std::vector<int>
tabulatedNodes()
{
    std::vector<int> nodes;
    nodes.reserve(nodeTable.size());
    for (const auto &row : nodeTable)
        nodes.push_back(row.nm);
    return nodes;
}

} // namespace camj

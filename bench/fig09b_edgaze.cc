/**
 * @file
 * Fig. 9b: Ed-Gaze under 2D-Off / 2D-In / 3D-In / 3D-In-STT.
 * Expected shape (paper): in-sensor computing LOSES for this
 * compute-dominated workload; 65 nm 2D-In costs more than 130 nm
 * (frame-buffer leakage); 3D-In recovers ~38.5%; STT-RAM removes the
 * leakage for another ~69%.
 *
 * The eight variants run as ONE streaming sweep with lazily generated
 * specs and in-order delivery (see fig09a).
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "explore/sweep.h"
#include "usecases/edgaze.h"

using namespace camj;

namespace
{

const EdgazeVariant kVariants[] = {
    EdgazeVariant::TwoDOff, EdgazeVariant::TwoDIn,
    EdgazeVariant::ThreeDIn, EdgazeVariant::ThreeDInStt};
const int kNodes[] = {130, 65};

} // namespace

int
main()
{
    setLoggingEnabled(false);
    std::printf("Fig. 9b | Ed-Gaze energy per frame\n\n");

    spec::GeneratorSpecSource source(
        [](size_t i) -> std::optional<spec::DesignSpec> {
            return edgazeSpec(kVariants[i % 4], kNodes[i / 4]);
        },
        8);

    std::vector<BreakdownRow> rows;
    double off = 0.0, in3d = 0.0, stt = 0.0;
    double in2d_by_node[2] = {0.0, 0.0};
    bool failed = false;
    CallbackSink print([&](SweepResult r) {
        if (!r.feasible) {
            std::fprintf(stderr, "error: %s is infeasible: %s\n",
                         r.designName.c_str(), r.error.c_str());
            failed = true;
            return false;
        }
        const EdgazeVariant v = kVariants[r.index % 4];
        const size_t node_idx = r.index / 4;
        const int nm = kNodes[node_idx];
        rows.push_back(r.breakdown(std::string(edgazeVariantName(v)) +
                                   "(" + std::to_string(nm) + "nm)"));
        double t = r.report.total() / units::uJ;
        switch (v) {
          case EdgazeVariant::TwoDOff: off = t; break;
          case EdgazeVariant::TwoDIn: in2d_by_node[node_idx] = t; break;
          case EdgazeVariant::ThreeDIn: in3d = t; break;
          default: stt = t; break;
        }
        if (r.index % 4 == 3) { // node group complete
            const double in2d = in2d_by_node[node_idx];
            std::printf("%s", formatBreakdownTable(rows).c_str());
            std::printf("  2D-In costs %.2fx of 2D-Off | 3D-In saves "
                        "%.1f%% vs 2D-In (paper avg: 38.5%%) | STT "
                        "saves %.1f%% vs 3D-In (paper: %s)\n\n",
                        in2d / off, 100.0 * (in2d - in3d) / in2d,
                        100.0 * (in3d - stt) / in3d,
                        nm == 130 ? "68.5%" : "69.1%");
            rows.clear();
        }
        return true;
    });
    InOrderSink inorder(print);
    SweepEngine().runStream(source, inorder);
    if (failed)
        return 1;

    std::printf("leakage flip: 65 nm 2D-In costs %.2fx of the 130 nm "
                "version (paper: >1 because of 65 nm leakage)\n",
                in2d_by_node[1] / in2d_by_node[0]);
    std::printf("shape check: in-sensor loses, 65 nm flips above "
                "130 nm, stacking and STT-RAM recover [Findings "
                "1-2]\n");
    return 0;
}

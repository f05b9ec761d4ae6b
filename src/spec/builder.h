/**
 * @file
 * DesignBuilder: the fluent front-end for assembling a DesignSpec.
 *
 * Every call validates incrementally — duplicate names, dangling
 * references, and arity mistakes surface at the call site instead of
 * deep inside simulate(). The builder produces either the plain-data
 * DesignSpec (spec()) for serialization/sweeping, or a materialized
 * Design (build()) ready to simulate.
 *
 *   Design d = DesignBuilder("fig5")
 *                  .fps(30.0)
 *                  .digitalClock(10e6)
 *                  .inputStage("Input", {32, 32, 1})
 *                  .stage({.name = "Edge", ...}, {"Input"})
 *                  .analogArray({...})
 *                  .sram("LineBuffer", ...)
 *                  .computeUnit({...}, {"LineBuffer"}, {})
 *                  .adcOutput("LineBuffer")
 *                  .mipi()
 *                  .map("Input", "PixelArray")
 *                  .map("Edge", "EdgeUnit")
 *                  .build();
 */

#ifndef CAMJ_SPEC_BUILDER_H
#define CAMJ_SPEC_BUILDER_H

#include <string>
#include <vector>

#include "spec/spec.h"

namespace camj::spec
{

/** Fluent, incrementally validated DesignSpec assembler. */
class DesignBuilder
{
  public:
    /** @throws ConfigError on an empty name. */
    explicit DesignBuilder(std::string design_name);

    /** Start from an existing spec (e.g. to derive a variant).
     *  @throws ConfigError if the spec fails validation. */
    explicit DesignBuilder(DesignSpec spec);

    // ----- top-level parameters -----

    /** @throws ConfigError unless positive. */
    DesignBuilder &fps(double value);
    /** @throws ConfigError unless positive. */
    DesignBuilder &digitalClock(Frequency hz);

    // ----- algorithm -----

    /**
     * Add a stage; @p inputs name its producers in operand order.
     * Validates the stage parameters (by constructing a Stage), the
     * producer references, and the op arity immediately.
     */
    DesignBuilder &stage(StageParams params,
                         std::vector<std::string> inputs = {});

    /** Shorthand for a pixel-input stage. */
    DesignBuilder &inputStage(const std::string &name, Shape output,
                              int bit_depth = 8);

    // ----- analog hardware (insertion order = chain order) -----

    /** @throws ConfigError on duplicate hardware names or parameters
     *  the component factory rejects. */
    DesignBuilder &analogArray(AnalogArraySpec array);

    // ----- digital hardware -----

    DesignBuilder &memory(MemorySpec mem);

    /** SRAM-modelled memory at process node @p nm. */
    DesignBuilder &sram(const std::string &name, Layer layer,
                        MemoryKind kind, int64_t words, int word_bits,
                        int nm, double active_fraction = 1.0);

    /** STT-RAM-modelled memory at process node @p nm. */
    DesignBuilder &sttram(const std::string &name, Layer layer,
                          MemoryKind kind, int64_t words, int word_bits,
                          int nm, double active_fraction = 1.0);

    /** Pipelined accelerator wired to its buffers (port order =
     *  vector order). @throws ConfigError on unknown memories. */
    DesignBuilder &computeUnit(ComputeUnitParams params,
                               std::vector<std::string> input_mems = {},
                               std::vector<std::string> output_mems = {});

    /** Systolic array wired to its buffers. */
    DesignBuilder &systolicArray(SystolicArrayParams params,
                                 std::vector<std::string> input_mems = {},
                                 std::vector<std::string> output_mems = {});

    /** Route the ADC output into @p mem_name. */
    DesignBuilder &adcOutput(const std::string &mem_name);

    /** Append an input port of @p unit_name reading @p mem_name. */
    DesignBuilder &connectMemoryToUnit(const std::string &mem_name,
                                       const std::string &unit_name);

    /** Wire @p unit_name's output into @p mem_name. */
    DesignBuilder &connectUnitToMemory(const std::string &unit_name,
                                       const std::string &mem_name);

    // ----- communication -----

    /** MIPI CSI-2 link; 0 keeps the surveyed default energy. */
    DesignBuilder &mipi(Energy energy_per_byte = 0.0);

    /** uTSV link; 0 keeps the surveyed default energy. */
    DesignBuilder &tsv(Energy energy_per_byte = 0.0);

    /** Override the final-output data volume [B]. */
    DesignBuilder &pipelineOutputBytes(int64_t bytes);

    // ----- mapping -----

    /** Map @p stage_name onto @p hw_name. @throws ConfigError when
     *  either side is unknown or the stage is already mapped. */
    DesignBuilder &map(const std::string &stage_name,
                       const std::string &hw_name);

    // ----- products -----

    /** The assembled value-type spec (copy; the builder stays usable). */
    DesignSpec spec() const { return spec_; }

    /** Full validation + materialization. @throws ConfigError. */
    Design build() const;

  private:
    DesignSpec spec_;

    bool hasStage(const std::string &name) const;
    bool hasHardware(const std::string &name) const;
    bool hasMemory(const std::string &name) const;
    UnitSpec *findUnit(const std::string &name);
    void checkNewHardwareName(const std::string &name) const;
    void checkMemoryRefs(const std::vector<std::string> &mems,
                         const std::string &who) const;
    std::string knownUnitNames() const;
};

} // namespace camj::spec

#endif // CAMJ_SPEC_BUILDER_H

#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "core/area.h"
#include "core/checks.h"
#include "core/design.h"

namespace camj
{

namespace
{

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/** Elements at elem_bits converted to whole memory words. */
int64_t
elemsToWords(int64_t elems, int elem_bits, int word_bits)
{
    return ceilDiv(elems * elem_bits, word_bits);
}

/** Elements at elem_bits converted to whole bytes. */
int64_t
elemsToBytes(int64_t elems, int elem_bits)
{
    return ceilDiv(elems * elem_bits, 8);
}

/** @p lists as @p n empty lists, each keeping its storage. */
void
clearLists(std::vector<std::vector<StageId>> &lists, size_t n)
{
    lists.resize(n);
    for (std::vector<StageId> &l : lists)
        l.clear();
}

} // namespace

const char *
evalStageName(EvalStage stage)
{
    switch (stage) {
      case EvalStage::Map:
        return "map";
      case EvalStage::Analog:
        return "analog";
      case EvalStage::Digital:
        return "digital";
      case EvalStage::CycleSim:
        return "cyclesim";
      case EvalStage::Timing:
        return "timing";
      case EvalStage::Energy:
        return "energy";
    }
    panic("evalStageName: unknown stage %d", static_cast<int>(stage));
}

// ------------------------------------------------------------------ Map

void
EvalPipeline::runMap(const Design &d)
{
    // DAG well-formedness (its acyclicity check leaves the
    // topological order) and mapping completeness.
    d.sw_.validate(topo_, indegree_);
    if (d.analog_.empty())
        fatal(Rule::E009,
              "Design %s: no analog arrays (a CIS starts with a pixel "
              "array)", d.params_.name.c_str());

    topoPos_.assign(static_cast<size_t>(d.sw_.size()), 0);
    for (size_t i = 0; i < topo_.size(); ++i)
        topoPos_[static_cast<size_t>(topo_[i])] = static_cast<int>(i);

    // Per-target mapped stage ids.
    clearLists(analogStages_, d.analog_.size());
    clearLists(unitStages_, d.units_.size());
    memPrefilled_.assign(d.mems_.size(), false);

    for (StageId id = 0; id < d.sw_.size(); ++id) {
        const Stage &s = d.sw_.stage(id);
        const HwTarget t = d.targets_[static_cast<size_t>(id)];
        const size_t i = static_cast<size_t>(t.index);
        switch (t.kind) {
          case HwKind::None:
            fatal(Rule::E008,
                  "Design %s: stage '%s' is not mapped to hardware",
                  d.params_.name.c_str(), s.name().c_str());
          case HwKind::Analog:
            analogStages_[i].push_back(id);
            break;
          case HwKind::Memory:
            if (s.op() != StageOp::Input)
                fatal(Rule::E008,
                      "Design %s: only Input stages may map onto a "
                      "memory ('%s' -> '%s')",
                      d.params_.name.c_str(), s.name().c_str(),
                      d.mems_[i].name().c_str());
            // Residency of a retained frame: reads always succeed.
            memPrefilled_[i] = true;
            break;
          case HwKind::Unit:
            unitStages_[i].push_back(id);
            break;
        }
    }

    auto by_topo = [&](StageId a, StageId b) {
        return topoPos_[static_cast<size_t>(a)] <
               topoPos_[static_cast<size_t>(b)];
    };
    for (auto &v : analogStages_)
        std::sort(v.begin(), v.end(), by_topo);
    for (auto &v : unitStages_)
        std::sort(v.begin(), v.end(), by_topo);
}

// --------------------------------------------------------------- Analog

void
EvalPipeline::runAnalog(const Design &d)
{
    // Analog chain: per-array ops via the dataflow-volume rule.
    analogOps_.assign(d.analog_.size(), 0);
    volume_ = 0;
    volumeBits_ = 8;
    for (size_t i = 0; i < d.analog_.size(); ++i) {
        const auto &mapped = analogStages_[i];
        if (!mapped.empty()) {
            const Stage &last = d.sw_.stage(mapped.back());
            // Eq. 3 numerator: a compute array performs one component
            // access per primitive operation (e.g. per MAC of a
            // convolution); sensing/memory/ADC arrays perform one
            // access per produced sample (multi-input primitives like
            // charge binning live inside the component via spatial
            // cell counts).
            if (d.analog_[i].role == AnalogRole::AnalogCompute)
                analogOps_[i] = last.opsPerFrame();
            else
                analogOps_[i] = last.outputsPerFrame();
            volume_ = last.outputsPerFrame();
            volumeBits_ = last.bitDepth();
        } else {
            if (volume_ == 0)
                fatal(Rule::E008,
                      "Design %s: analog array '%s' precedes any mapped "
                      "stage; map the Input stage to the pixel array",
                      d.params_.name.c_str(),
                      d.analog_[i].array.name().c_str());
            analogOps_[i] = volume_; // pass-through (e.g. ADC)
        }
    }

    chain_.clear();
    for (const auto &e : d.analog_)
        chain_.push_back(&e.array);
    checkAnalogDomains(chain_);
    checkAnalogThroughput(chain_);
    checkAdcBoundary(chain_);

    // A FoM-surveyed converter samples at least ceil(accesses) x
    // slots x fps times per second per cell (its slot is at most
    // T_FR / slots), however long the digital side takes. Past the
    // survey's range the analog chain alone is infeasible: say so
    // before Timing measures the digital latency.
    const double slots = static_cast<double>(d.analog_.size()) + 1.0;
    for (size_t i = 0; i < d.analog_.size(); ++i) {
        const AnalogArray &a = d.analog_[i].array;
        const double accesses =
            std::ceil(a.accessesPerComponent(analogOps_[i]));
        const double rate = accesses * slots * d.params_.fps;
        if (rate > 1e12 && a.component().fomSurveyed())
            fatal(Rule::E015,
                  "Design %s: converter '%s' needs >= %.3g S/s per "
                  "cell (%.0f accesses/component x %.0f slots x %g "
                  "fps), outside the ADC FoM survey's (0, 1e12] range",
                  d.params_.name.c_str(), a.name().c_str(), rate,
                  accesses, slots, d.params_.fps);
    }
}

// -------------------------------------------------------------- Digital

void
EvalPipeline::runDigital(const Design &d)
{
    // Digital pipeline analytics: fires, access counts, volumes.
    ustats_.resize(d.units_.size());
    for (UnitStats &st : ustats_)
        st.clear();
    memReadWords_.assign(d.mems_.size(), 0);
    memWriteWords_.assign(d.mems_.size(), 0);
    // Element-granularity counts for the cycle simulation.
    memWriteElems_.assign(d.mems_.size(), 0);

    mipiBytes_ = 0;
    tsvBytes_ = 0;
    auto cross = [&](Layer from, Layer to, int64_t bytes) {
        if (from == to)
            return;
        if (from == Layer::OffChip || to == Layer::OffChip)
            mipiBytes_ += bytes;
        else
            tsvBytes_ += bytes;
    };

    for (size_t u = 0; u < d.units_.size(); ++u) {
        const Design::UnitEntry &ue = d.units_[u];
        UnitStats &st = ustats_[u];
        st.portReadElems.assign(ue.inputMems.size(), 0);

        if (unitStages_[u].empty()) {
            warn("Design %s: compute unit '%s' has no mapped stages",
                 d.params_.name.c_str(), ue.name().c_str());
            continue;
        }
        if (ue.inputMems.empty())
            fatal(Rule::E012, "Design %s: unit '%s' has no input memory",
                  d.params_.name.c_str(), ue.name().c_str());

        if (std::holds_alternative<SystolicArray>(ue.unit)) {
            const auto &sa = std::get<SystolicArray>(ue.unit);
            if (ue.inputMems.size() != 1)
                fatal(Rule::E012,
                      "Design %s: systolic array '%s' needs exactly one "
                      "input buffer", d.params_.name.c_str(),
                      ue.name().c_str());
            for (StageId id : unitStages_[u]) {
                const Stage &s = d.sw_.stage(id);
                SystolicMapping m = sa.mapStage(s);
                st.fires += m.cycles;
                st.energy += m.energy;
                // Weight-stationary traffic: each activation fetch
                // feeds `rows` PEs, each weight fetch feeds `cols`
                // streaming pixels.
                st.portReadElems[0] += m.macs / sa.rows() +
                                       m.macs / sa.cols();
                st.writeElems += s.outputsPerFrame();
                st.elemBits = s.bitDepth();
            }
            st.latency = sa.rows() + sa.cols();
        } else {
            const auto &cu = std::get<ComputeUnit>(ue.unit);
            for (StageId id : unitStages_[u]) {
                const Stage &s = d.sw_.stage(id);
                int64_t fires = cu.cyclesForStage(s.outputsPerFrame(),
                                                  s.opsPerFrame());
                st.fires += fires;
                for (size_t p = 0; p < ue.inputMems.size(); ++p) {
                    st.portReadElems[p] +=
                        fires * cu.inputPixelsPerCycle().count();
                }
                st.writeElems +=
                    fires * cu.outputPixelsPerCycle().count();
                st.elemBits = s.bitDepth();
            }
            st.energy = cu.energyForCycles(st.fires);
            st.latency = cu.numStages();
        }

        for (size_t p = 0; p < ue.inputMems.size(); ++p) {
            const size_t m = static_cast<size_t>(ue.inputMems[p]);
            memReadWords_[m] += elemsToWords(st.portReadElems[p],
                                             st.elemBits,
                                             d.mems_[m].wordBits());
            cross(d.mems_[m].layer(), ue.layer(),
                  elemsToBytes(st.portReadElems[p], st.elemBits));
        }
        for (int mi : ue.outputMems) {
            const size_t m = static_cast<size_t>(mi);
            memWriteWords_[m] += elemsToWords(st.writeElems,
                                              st.elemBits,
                                              d.mems_[m].wordBits());
            memWriteElems_[m] += st.writeElems;
            cross(ue.layer(), d.mems_[m].layer(),
                  elemsToBytes(st.writeElems, st.elemBits));
        }
    }

    // ADC output into the digital pipeline.
    if (!d.units_.empty() && d.adcOutputMem_ < 0)
        fatal(Rule::E012,
              "Design %s: digital units exist but no adcOutputMemory "
              "is configured", d.params_.name.c_str());
    if (d.adcOutputMem_ >= 0) {
        const size_t m = static_cast<size_t>(d.adcOutputMem_);
        memWriteWords_[m] += elemsToWords(volume_, volumeBits_,
                                          d.mems_[m].wordBits());
        memWriteElems_[m] += volume_;
        cross(d.analog_.back().array.layer(), d.mems_[m].layer(),
              elemsToBytes(volume_, volumeBits_));
    }

    haveDigital_ = false;
    for (size_t u = 0; u < d.units_.size(); ++u) {
        if (!unitStages_[u].empty() && ustats_[u].fires > 0)
            haveDigital_ = true;
    }
}

// ------------------------------------------------------------- CycleSim

void
EvalPipeline::buildSim(const Design &d, double source_rate_elems)
{
    CycleSim &sim = sim_;
    sim.clear();
    for (size_t m = 0; m < d.mems_.size(); ++m) {
        SimMemory sm;
        sm.name = d.mems_[m].name();
        // Track occupancy in elements of the data flowing through.
        int elem_bits = 8;
        for (size_t u = 0; u < d.units_.size(); ++u) {
            for (int mi : d.units_[u].outputMems) {
                if (mi == static_cast<int>(m))
                    elem_bits = ustats_[u].elemBits;
            }
        }
        if (d.adcOutputMem_ == static_cast<int>(m))
            elem_bits = volumeBits_;
        sm.capacityWords = std::max<int64_t>(
            1, d.mems_[m].capacityWords() * d.mems_[m].wordBits() /
                   elem_bits);
        sm.readPorts = d.mems_[m].readPorts();
        sm.writePorts = d.mems_[m].writePorts();
        sm.prefilled = memPrefilled_[m];
        sim.addMemory(sm);
    }
    if (d.adcOutputMem_ >= 0 && volume_ > 0) {
        SimSource src;
        src.name = "adc-source";
        src.totalWords = volume_;
        src.wordsPerCycle = source_rate_elems;
        src.memIdx = d.adcOutputMem_;
        sim.addSource(src);
    }
    for (size_t u = 0; u < d.units_.size(); ++u) {
        if (unitStages_[u].empty() || ustats_[u].fires == 0)
            continue;
        const Design::UnitEntry &ue = d.units_[u];
        SimUnit su;
        su.name = ue.name();
        for (size_t p = 0; p < ue.inputMems.size(); ++p) {
            SimPort port;
            port.memIdx = ue.inputMems[p];
            port.readWords = std::max<int64_t>(
                1, ustats_[u].portReadElems[p] / ustats_[u].fires);
            port.needWords = port.readWords;
            // Flow conservation: retire what the producer put in.
            const size_t m = static_cast<size_t>(port.memIdx);
            port.retireWords =
                static_cast<double>(memWriteElems_[m]) /
                static_cast<double>(ustats_[u].fires);
            port.expectedWords =
                static_cast<double>(memWriteElems_[m]);
            su.inputs.push_back(port);
        }
        su.outMemIdx = ue.outputMems.empty() ? -1 : ue.outputMems[0];
        su.outWords = std::max<int64_t>(
            1, ustats_[u].writeElems / ustats_[u].fires);
        su.totalFires = ustats_[u].fires;
        su.latency = ustats_[u].latency;
        sim.addUnit(std::move(su));
    }
}

void
EvalPipeline::runCycleSim(const Design &d, CycleSimMemo *memo)
{
    // Pass A: latency with a source matched to the first consumer's
    // appetite (the digital side is never input-bound).
    cyclesA_ = 0;
    if (!haveDigital_)
        return;
    double fast_rate = 1.0;
    for (size_t u = 0; u < d.units_.size(); ++u) {
        for (size_t p = 0; p < d.units_[u].inputMems.size(); ++p) {
            if (d.units_[u].inputMems[p] == d.adcOutputMem_ &&
                ustats_[u].fires > 0) {
                fast_rate = std::max(
                    fast_rate,
                    static_cast<double>(ustats_[u].portReadElems[p]) /
                        static_cast<double>(ustats_[u].fires));
            }
        }
    }
    buildSim(d, fast_rate);
    // Source-rooted chains drain in closed form; the rest simulates.
    if (const std::optional<int64_t> drain =
            chainDrainCycle(sim_, stallScratch_)) {
        cyclesA_ = *drain;
        ++passStats_.passAClosedForm;
        return;
    }
    const CycleSimResult ra = memo != nullptr ? memo->run(sim_) : sim_.run();
    cyclesA_ = ra.cycles;
    passStats_.passA = ra.stats;
    ++passStats_.passASimulated;
}

// --------------------------------------------------------------- Timing

std::optional<ConfigError>
EvalPipeline::runTiming(const Design &d, CycleSimMemo *memo)
{
    const Time digital_latency =
        haveDigital_ ? static_cast<double>(cyclesA_) /
                           d.params_.digitalClock
                     : 0.0;

    if (std::optional<ConfigError> verdict = estimateDelaysInto(
            1.0 / d.params_.fps, digital_latency,
            static_cast<int>(d.analog_.size()), delay_))
        return verdict;

    if (haveDigital_ && volume_ > 0) {
        // Pass B: stall check at the true ADC production rate.
        double adc_rate = static_cast<double>(volume_) /
                          (delay_.analogUnitTime *
                           d.params_.digitalClock);
        // Pass B reuses pass A's built topology; the two passes only
        // differ in the source rate. Only the source's verdict is
        // needed, so the stall check simulates no more of the
        // topology than can influence it.
        sim_.setSourceRate(0, adc_rate);
        const StallCheck rb = checkSourceStall(sim_, stallScratch_, memo);
        passStats_.passB = rb.stats;
        passStats_.stallRoutes.add(rb.route);
        if (rb.sourceBlocked) {
            return configError(
                Rule::D001,
                "Design %s: pipeline stall — the ADC output memory "
                "fills up at the required frame rate (%lld blocked "
                "cycles); enlarge the buffer or speed up the "
                "consumer", d.params_.name.c_str(),
                static_cast<long long>(rb.sourceBlockedCycles));
        }
    }
    return std::nullopt;
}

// --------------------------------------------------------------- Energy

void
EvalPipeline::runEnergy(const Design &d)
{
    EnergyReport rep;
    rep.units.reserve(d.analog_.size() + d.units_.size() +
                      d.mems_.size() + 2);
    rep.designName = d.params_.name;
    rep.fps = d.params_.fps;
    rep.frameTime = delay_.frameTime;
    rep.digitalLatency = delay_.digitalLatency;
    rep.analogUnitTime = delay_.analogUnitTime;
    rep.numAnalogSlots = delay_.numSlots;

    AreaSummary areas;

    for (size_t i = 0; i < d.analog_.size(); ++i) {
        const Design::AnalogEntry &e = d.analog_[i];
        AnalogArrayEnergy ae = e.array.energyPerFrame(
            analogOps_[i], delay_.analogUnitTime, delay_.frameTime);
        EnergyCategory cat = EnergyCategory::Sen;
        if (e.role == AnalogRole::AnalogCompute)
            cat = EnergyCategory::CompA;
        else if (e.role == AnalogRole::AnalogMemory)
            cat = EnergyCategory::MemA;
        rep.units.push_back({e.array.name(), cat, e.array.layer(),
                             ae.total});
        areas.add(e.array.layer(), e.array.area());
    }

    for (size_t u = 0; u < d.units_.size(); ++u) {
        const Design::UnitEntry &ue = d.units_[u];
        rep.units.push_back({ue.name(), EnergyCategory::CompD,
                             ue.layer(), ustats_[u].energy});
        areas.add(ue.layer(), ue.area());
    }

    for (size_t m = 0; m < d.mems_.size(); ++m) {
        MemoryEnergy me = d.mems_[m].energyPerFrame(
            memReadWords_[m], memWriteWords_[m], delay_.frameTime);
        rep.units.push_back({d.mems_[m].name(), EnergyCategory::MemD,
                             d.mems_[m].layer(), me.total});
        areas.add(d.mems_[m].layer(), d.mems_[m].area());
    }

    // Final pipeline output leaves toward the host. Use the
    // topologically-last processing stage; resident-data Inputs (a
    // frame buffer's previous frame, region state) are not outputs
    // even when they sort last. The Digital stage's communication
    // volumes stay cached untouched; the output contribution is
    // added to a local total.
    int64_t mipi_bytes = mipiBytes_;
    const int64_t tsv_bytes = tsvBytes_;
    {
        StageId last_stage = topo_.back();
        for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
            if (d.sw_.stage(*it).op() != StageOp::Input) {
                last_stage = *it;
                break;
            }
        }
        const Stage &s = d.sw_.stage(last_stage);
        int64_t out_bytes = d.outputBytesOverride_ >= 0
                                ? d.outputBytesOverride_
                                : s.outputBytesPerFrame();
        // The Map stage has checked that every stage has a target.
        const HwTarget t = d.targets_[static_cast<size_t>(last_stage)];
        const size_t i = static_cast<size_t>(t.index);
        const Layer out_layer =
            t.kind == HwKind::Analog   ? d.analog_[i].array.layer()
            : t.kind == HwKind::Memory ? d.mems_[i].layer()
                                       : d.units_[i].layer();
        if (out_layer != Layer::OffChip)
            mipi_bytes += out_bytes;
    }

    if (mipi_bytes > 0) {
        if (!d.mipi_)
            fatal(Rule::E016,
                  "Design %s: %lld B cross the package boundary but no "
                  "MIPI interface is configured",
                  d.params_.name.c_str(),
                  static_cast<long long>(mipi_bytes));
        rep.units.push_back({d.mipi_->name(), EnergyCategory::Mipi,
                             Layer::Sensor,
                             d.mipi_->energyForBytes(mipi_bytes)});
    }
    if (tsv_bytes > 0) {
        if (!d.tsv_)
            fatal(Rule::E016,
                  "Design %s: %lld B cross between stacked layers but "
                  "no uTSV interface is configured",
                  d.params_.name.c_str(),
                  static_cast<long long>(tsv_bytes));
        rep.units.push_back({d.tsv_->name(), EnergyCategory::Tsv,
                             Layer::Sensor,
                             d.tsv_->energyForBytes(tsv_bytes)});
    }
    rep.mipiBytes = mipi_bytes;
    rep.tsvBytes = tsv_bytes;

    rep.sensorLayerArea = areas.sensorLayer;
    rep.computeLayerArea = areas.computeLayer;
    rep.footprint = areas.footprint();
    // A result line prints the frame total and its categories, and
    // unit energies are non-negative, so one check of the total per
    // point classifies a parameter that overflows (1e308 J per MIPI
    // byte) before it reaches the JSONL writer, which cannot print it.
    const Energy total = rep.total();
    if (!std::isfinite(total)) {
        std::string culprit;
        for (const UnitEnergy &u : rep.units) {
            if (!std::isfinite(u.energy)) {
                culprit = strprintf("; unit '%s' alone gives %g J",
                                    u.name.c_str(), u.energy);
                break;
            }
        }
        fatal(Rule::D004,
              "Design %s: the frame energy is %g J, not a finite "
              "number%s", d.params_.name.c_str(), total,
              culprit.c_str());
    }
    report_ = std::move(rep);
}

// ------------------------------------------------------------- the run

std::optional<ConfigError>
EvalPipeline::runStage(const Design &design, EvalStage stage,
                       CycleSimMemo *memo)
{
    switch (stage) {
      case EvalStage::Map:
        runMap(design);
        break;
      case EvalStage::Analog:
        runAnalog(design);
        break;
      case EvalStage::Digital:
        runDigital(design);
        break;
      case EvalStage::CycleSim:
        runCycleSim(design, memo);
        break;
      case EvalStage::Timing:
        return runTiming(design, memo);
      case EvalStage::Energy:
        runEnergy(design);
        break;
    }
    return std::nullopt;
}

std::optional<ConfigError>
EvalPipeline::run(const Design &design, CycleSimMemo *memo,
                  double *seconds_out)
{
    stagesEntered_ = 0;
    passStats_ = {};
    for (int s = 0; s < kEvalStageCount; ++s) {
        ++stagesEntered_;
        const EvalStage stage = static_cast<EvalStage>(s);
        std::chrono::steady_clock::time_point t0;
        if (seconds_out != nullptr)
            t0 = std::chrono::steady_clock::now();
        // A stage that fails adds no time, as one that throws.
        if (std::optional<ConfigError> verdict =
                runStage(design, stage, memo))
            return verdict;
        if (seconds_out != nullptr)
            seconds_out[s] += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
    }
    return std::nullopt;
}

std::optional<ConfigError>
EvalPipeline::runToVerdict(const Design &design, CycleSimMemo *memo)
{
    return run(design, memo, nullptr);
}

EnergyReport
EvalPipeline::runAll(const Design &design, CycleSimMemo *memo)
{
    if (std::optional<ConfigError> verdict = run(design, memo, nullptr))
        throw *verdict;
    return takeReport();
}

EnergyReport
EvalPipeline::runAllTimed(const Design &design,
                          double seconds_out[/*kEvalStageCount*/])
{
    if (std::optional<ConfigError> verdict =
            run(design, nullptr, seconds_out))
        throw *verdict;
    return takeReport();
}

} // namespace camj

#include "analysis/analyzer.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/layer.h"
#include "common/logging.h"
#include "sw/stage.h"

namespace camj::analysis
{

namespace
{

using json::Value;
using spec::AnalogArraySpec;
using spec::CellClass;
using spec::CellSpec;
using spec::ComponentKind;
using spec::ComponentSpec;
using spec::DesignSpec;
using spec::MemoryModel;
using spec::MemorySpec;
using spec::StageSpec;
using spec::UnitKind;
using spec::UnitSpec;

std::string
strf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[512];
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

/** Element selector for a path: the element's name, or its index when
 *  the name is empty (the name rules report the emptiness itself). */
std::string
elemSel(const std::string &name, size_t index)
{
    return name.empty() ? std::to_string(index) : name;
}

bool
sameShape(const Shape &a, const Shape &b)
{
    return a.width == b.width && a.height == b.height &&
           a.channels == b.channels;
}

bool
positiveShape(const Shape &s)
{
    return s.width > 0 && s.height > 0 && s.channels > 0;
}

std::optional<Stage>
tryStage(const StageParams &params)
{
    try {
        return Stage(params);
    } catch (const ConfigError &) {
        return std::nullopt;
    }
}

// --------------------------------------------------- shared spec views

/** Stage names -> specs, only when names are unique and non-empty
 *  (the duplicate-name rule owns the degenerate cases). */
std::optional<std::unordered_map<std::string, const StageSpec *>>
stagesByName(const DesignSpec &spec)
{
    std::unordered_map<std::string, const StageSpec *> out;
    for (const StageSpec &s : spec.stages) {
        if (s.params.name.empty())
            return std::nullopt;
        if (!out.emplace(s.params.name, &s).second)
            return std::nullopt;
    }
    return out;
}

/** Kahn topological order of stage names; nullopt when the graph has
 *  unresolved edges, duplicate names, or a cycle. */
std::optional<std::vector<const StageSpec *>>
topoOrder(const DesignSpec &spec)
{
    auto byName = stagesByName(spec);
    if (!byName)
        return std::nullopt;
    std::unordered_map<std::string, int> indegree;
    std::unordered_map<std::string, std::vector<std::string>> consumers;
    for (const StageSpec &s : spec.stages)
        indegree[s.params.name] = 0;
    for (const StageSpec &s : spec.stages) {
        for (const std::string &in : s.inputs) {
            if (!byName->count(in))
                return std::nullopt;
            consumers[in].push_back(s.params.name);
            ++indegree[s.params.name];
        }
    }
    // Seed in declaration order for a deterministic result.
    std::vector<const StageSpec *> order;
    std::vector<const StageSpec *> ready;
    for (const StageSpec &s : spec.stages) {
        if (indegree[s.params.name] == 0)
            ready.push_back(&s);
    }
    while (!ready.empty()) {
        const StageSpec *s = ready.front();
        ready.erase(ready.begin());
        order.push_back(s);
        for (const std::string &c : consumers[s->params.name]) {
            if (--indegree[c] == 0)
                ready.push_back(byName->at(c));
        }
    }
    if (order.size() != spec.stages.size())
        return std::nullopt;
    return order;
}

/** Stage-name -> mapped hardware name; nullopt when the mapping is
 *  incomplete, duplicated, or dangling (other rules own those). */
std::optional<std::unordered_map<std::string, std::string>>
completeMapping(const DesignSpec &spec)
{
    auto byName = stagesByName(spec);
    if (!byName)
        return std::nullopt;
    std::unordered_map<std::string, std::string> out;
    for (const auto &[stage, hw] : spec.mapping) {
        if (!byName->count(stage))
            return std::nullopt;
        if (!out.emplace(stage, hw).second)
            return std::nullopt;
    }
    if (out.size() != spec.stages.size())
        return std::nullopt;
    return out;
}

/**
 * The static mirror of EvalPipeline::runAnalog's dataflow-volume
 * walk: per-array operation counts plus the volume leaving the chain.
 * ok is false when a prerequisite (valid stages, complete mapping,
 * acyclic DAG) is missing — the rules owning those report them.
 */
struct AnalogWalk
{
    bool ok = false;
    std::vector<int64_t> ops;
    /** Index of an unmapped array preceding any mapped stage; -1 when
     *  the chain is well-formed. */
    int precedesIndex = -1;
    int64_t volume = 0;
    int volumeBits = 8;
};

AnalogWalk
analogWalk(const DesignSpec &spec)
{
    AnalogWalk w;
    if (spec.analogArrays.empty())
        return w;
    auto order = topoOrder(spec);
    auto mapping = completeMapping(spec);
    if (!order || !mapping)
        return w;

    // Valid Stage objects in topological order.
    std::vector<std::pair<const StageSpec *, Stage>> stages;
    for (const StageSpec *s : *order) {
        auto st = tryStage(s->params);
        if (!st)
            return w;
        stages.emplace_back(s, std::move(*st));
    }

    w.ok = true;
    w.ops.assign(spec.analogArrays.size(), 0);
    for (size_t i = 0; i < spec.analogArrays.size(); ++i) {
        const AnalogArraySpec &a = spec.analogArrays[i];
        if (!positiveShape(a.numComponents)) {
            w.ok = false; // component-param rule owns this
            return w;
        }
        const Stage *last = nullptr;
        for (const auto &[s, st] : stages) {
            if (mapping->at(s->params.name) == a.name)
                last = &st;
        }
        if (last) {
            w.ops[i] = a.role == AnalogRole::AnalogCompute
                           ? last->opsPerFrame()
                           : last->outputsPerFrame();
            w.volume = last->outputsPerFrame();
            w.volumeBits = last->bitDepth();
        } else {
            if (w.volume == 0) {
                w.precedesIndex = static_cast<int>(i);
                return w;
            }
            w.ops[i] = w.volume; // pass-through (e.g. an ADC array)
        }
    }
    return w;
}

// ----------------------------------------------------------- rule E001

void
checkTopLevel(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    if (s.name.empty())
        out.push_back(makeError("CAMJ-E001", "name",
                                "empty design name"));
    if (s.fps <= 0.0)
        out.push_back(makeError("CAMJ-E001", "fps",
                                strf("fps must be positive (got %g)",
                                     s.fps)));
    if (s.digitalClock <= 0.0)
        out.push_back(makeError(
            "CAMJ-E001", "digitalClock",
            strf("digital clock must be positive (got %g Hz)",
                 s.digitalClock)));
}

// ----------------------------------------------------------- rule E002

void
checkDuplicateNames(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    std::set<std::string> stageNames;
    for (size_t i = 0; i < s.stages.size(); ++i) {
        const std::string &n = s.stages[i].params.name;
        if (n.empty()) {
            out.push_back(makeError("CAMJ-E002",
                                    "stages[" + std::to_string(i) + "]",
                                    "a stage has an empty name"));
        } else if (!stageNames.insert(n).second) {
            out.push_back(makeError("CAMJ-E002", "stages[" + n + "]",
                                    strf("duplicate stage '%s'",
                                         n.c_str())));
        }
    }

    std::set<std::string> hwNames;
    auto addHw = [&](const std::string &n, const char *what,
                     const std::string &path) {
        if (n.empty()) {
            out.push_back(makeError("CAMJ-E002", path,
                                    strf("a %s has an empty name",
                                         what)));
        } else if (!hwNames.insert(n).second) {
            out.push_back(makeError(
                "CAMJ-E002", path,
                strf("duplicate hardware name '%s'", n.c_str())));
        }
    };
    for (size_t i = 0; i < s.analogArrays.size(); ++i)
        addHw(s.analogArrays[i].name, "analog array",
              "analogArrays[" + elemSel(s.analogArrays[i].name, i) +
                  "]");
    for (size_t i = 0; i < s.memories.size(); ++i)
        addHw(s.memories[i].name, "memory",
              "memories[" + elemSel(s.memories[i].name, i) + "]");
    for (size_t i = 0; i < s.units.size(); ++i)
        addHw(s.units[i].name(), "digital unit",
              "units[" + elemSel(s.units[i].name(), i) + "]");
}

// ----------------------------------------------------------- rule E003

void
checkDanglingRefs(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    std::set<std::string> stageNames;
    for (const StageSpec &st : s.stages)
        stageNames.insert(st.params.name);
    std::set<std::string> memNames;
    for (const MemorySpec &m : s.memories)
        memNames.insert(m.name);
    std::set<std::string> hwNames = memNames;
    for (const AnalogArraySpec &a : s.analogArrays)
        hwNames.insert(a.name);
    for (const UnitSpec &u : s.units)
        hwNames.insert(u.name());

    const std::string stageList =
        spec::joinNames({stageNames.begin(), stageNames.end()});
    const std::string memList =
        spec::joinNames({memNames.begin(), memNames.end()});

    for (size_t i = 0; i < s.stages.size(); ++i) {
        const StageSpec &st = s.stages[i];
        const std::string base =
            "stages[" + elemSel(st.params.name, i) + "]";
        for (size_t j = 0; j < st.inputs.size(); ++j) {
            if (!stageNames.count(st.inputs[j])) {
                out.push_back(makeError(
                    "CAMJ-E003",
                    base + ".inputs[" + std::to_string(j) + "]",
                    strf("stage '%s' reads unknown stage '%s'",
                         st.params.name.c_str(),
                         st.inputs[j].c_str()),
                    "registered stages: " + stageList));
            }
        }
    }
    for (size_t i = 0; i < s.units.size(); ++i) {
        const UnitSpec &u = s.units[i];
        const std::string base = "units[" + elemSel(u.name(), i) + "]";
        auto checkMems = [&](const std::vector<std::string> &mems,
                             const char *field) {
            for (size_t j = 0; j < mems.size(); ++j) {
                if (!memNames.count(mems[j])) {
                    out.push_back(makeError(
                        "CAMJ-E003",
                        base + "." + field + "[" + std::to_string(j) +
                            "]",
                        strf("unit '%s' references unknown memory "
                             "'%s'",
                             u.name().c_str(), mems[j].c_str()),
                        "registered memories: " + memList));
                }
            }
        };
        checkMems(u.inputMemories, "inputMemories");
        checkMems(u.outputMemories, "outputMemories");
    }
    if (!s.adcOutputMemory.empty() && !memNames.count(s.adcOutputMemory))
        out.push_back(makeError(
            "CAMJ-E003", "adcOutputMemory",
            strf("adcOutputMemory references unknown memory '%s'",
                 s.adcOutputMemory.c_str()),
            "registered memories: " + memList));

    for (size_t i = 0; i < s.mapping.size(); ++i) {
        const auto &[stage, hw] = s.mapping[i];
        const std::string base = "mapping[" + std::to_string(i) + "]";
        if (!stageNames.count(stage))
            out.push_back(makeError(
                "CAMJ-E003", base + ".stage",
                strf("mapping references unknown stage '%s'",
                     stage.c_str()),
                "registered stages: " + stageList));
        if (!hwNames.count(hw))
            out.push_back(makeError(
                "CAMJ-E003", base + ".hw",
                strf("mapping of stage '%s' targets unknown hardware "
                     "'%s'",
                     stage.c_str(), hw.c_str()),
                "registered hardware: " +
                    spec::joinNames({hwNames.begin(), hwNames.end()})));
    }
}

// ----------------------------------------------------------- rule E004

void
checkStageArity(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    for (size_t i = 0; i < s.stages.size(); ++i) {
        const StageSpec &st = s.stages[i];
        const int arity = stageOpArity(st.params.op);
        if (static_cast<int>(st.inputs.size()) != arity) {
            out.push_back(makeError(
                "CAMJ-E004",
                "stages[" + elemSel(st.params.name, i) + "].inputs",
                strf("stage '%s' (%s) needs %d input(s), spec lists "
                     "%zu",
                     st.params.name.c_str(),
                     stageOpName(st.params.op), arity,
                     st.inputs.size())));
        }
    }
}

// ----------------------------------------------------------- rule E005

void
checkStageGeometry(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    for (size_t i = 0; i < s.stages.size(); ++i) {
        const StageSpec &st = s.stages[i];
        if (st.params.name.empty())
            continue; // the duplicate-name rule owns empty names
        try {
            Stage probe(st.params);
        } catch (const ConfigError &e) {
            out.push_back(makeError(
                "CAMJ-E005", "stages[" + st.params.name + "]",
                e.what()));
        }
    }
}

// ----------------------------------------------------------- rule E006

void
checkDagShapes(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    auto byName = stagesByName(s);
    if (!byName)
        return;
    // Only stages whose geometry stands on its own participate.
    std::unordered_map<std::string, Stage> valid;
    for (const StageSpec &st : s.stages) {
        if (auto probe = tryStage(st.params))
            valid.emplace(st.params.name, std::move(*probe));
    }
    for (const StageSpec &st : s.stages) {
        auto cons = valid.find(st.params.name);
        if (cons == valid.end())
            continue;
        for (const std::string &in : st.inputs) {
            auto prod = valid.find(in);
            if (prod == valid.end())
                continue;
            if (!sameShape(prod->second.outputSize(),
                           cons->second.inputSize())) {
                out.push_back(makeError(
                    "CAMJ-E006",
                    "stages[" + st.params.name + "].inputSize",
                    strf("shape mismatch on edge '%s' (%s) -> '%s' "
                         "(%s)",
                         in.c_str(),
                         prod->second.outputSize().str().c_str(),
                         st.params.name.c_str(),
                         cons->second.inputSize().str().c_str()),
                    "a producer's outputSize must equal its "
                    "consumer's inputSize"));
            }
        }
    }
}

// ----------------------------------------------------------- rule E007

void
checkDagStructure(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    if (s.stages.empty()) {
        out.push_back(makeError("CAMJ-E007", "stages",
                                "empty algorithm graph"));
        return;
    }
    bool hasInput = false;
    for (const StageSpec &st : s.stages)
        hasInput |= st.params.op == StageOp::Input;
    if (!hasInput)
        out.push_back(makeError("CAMJ-E007", "stages",
                                "no Input stage",
                                "every algorithm graph starts at an "
                                "Input stage (the pixel source)"));

    for (size_t i = 0; i < s.stages.size(); ++i) {
        const StageSpec &st = s.stages[i];
        const std::string base =
            "stages[" + elemSel(st.params.name, i) + "]";
        std::set<std::string> seen;
        for (size_t j = 0; j < st.inputs.size(); ++j) {
            if (st.inputs[j] == st.params.name) {
                out.push_back(makeError(
                    "CAMJ-E007",
                    base + ".inputs[" + std::to_string(j) + "]",
                    strf("self-loop on stage '%s'",
                         st.params.name.c_str())));
            } else if (!seen.insert(st.inputs[j]).second) {
                out.push_back(makeError(
                    "CAMJ-E007",
                    base + ".inputs[" + std::to_string(j) + "]",
                    strf("duplicate edge '%s' -> '%s'",
                         st.inputs[j].c_str(),
                         st.params.name.c_str())));
            }
        }
    }

    // Cycle detection over the resolvable unique-name graph.
    auto byName = stagesByName(s);
    if (!byName)
        return;
    bool resolvable = true;
    for (const StageSpec &st : s.stages) {
        for (const std::string &in : st.inputs)
            resolvable &= byName->count(in) > 0;
    }
    if (resolvable && !topoOrder(s)) {
        out.push_back(makeError("CAMJ-E007", "stages",
                                "cycle detected in the algorithm "
                                "graph"));
    }
}

// ----------------------------------------------------------- rule E008

void
checkMapping(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    std::unordered_map<std::string, StageOp> stageOps;
    for (const StageSpec &st : s.stages)
        stageOps.emplace(st.params.name, st.params.op);
    std::set<std::string> memNames;
    for (const MemorySpec &m : s.memories)
        memNames.insert(m.name);
    std::unordered_map<std::string, const UnitSpec *> unitsByName;
    for (const UnitSpec &u : s.units)
        unitsByName.emplace(u.name(), &u);

    std::set<std::string> mapped;
    for (size_t i = 0; i < s.mapping.size(); ++i) {
        const auto &[stage, hw] = s.mapping[i];
        const std::string base = "mapping[" + std::to_string(i) + "]";
        if (!mapped.insert(stage).second)
            out.push_back(makeError(
                "CAMJ-E008", base + ".stage",
                strf("mapping lists stage '%s' twice",
                     stage.c_str())));
        auto op = stageOps.find(stage);
        if (op == stageOps.end())
            continue; // dangling, owned by the reference rule
        if (memNames.count(hw) && op->second != StageOp::Input) {
            out.push_back(makeError(
                "CAMJ-E008", base + ".hw",
                strf("only Input stages may map onto a memory ('%s' "
                     "-> '%s')",
                     stage.c_str(), hw.c_str())));
        }
        auto unit = unitsByName.find(hw);
        if (unit != unitsByName.end() &&
            unit->second->kind == UnitKind::Systolic &&
            op->second != StageOp::Conv2d &&
            op->second != StageOp::DepthwiseConv2d &&
            op->second != StageOp::FullyConnected) {
            out.push_back(makeError(
                "CAMJ-E008", base + ".hw",
                strf("systolic array '%s' cannot map %s stage '%s'",
                     hw.c_str(), stageOpName(op->second),
                     stage.c_str()),
                "systolic arrays execute conv2d, depthwise-conv2d, "
                "and fully-connected stages"));
        }
    }
    for (const StageSpec &st : s.stages) {
        if (!st.params.name.empty() && !mapped.count(st.params.name)) {
            out.push_back(makeError(
                "CAMJ-E008", "mapping",
                strf("stage '%s' is not mapped to hardware",
                     st.params.name.c_str()),
                strf("add {\"stage\": \"%s\", \"hw\": ...} to the "
                     "mapping",
                     st.params.name.c_str())));
        }
    }

    // Mirror of runAnalog's ordering requirement: an unmapped analog
    // array before the first mapped stage has no volume to process.
    AnalogWalk w = analogWalk(s);
    if (w.precedesIndex >= 0) {
        const auto &a =
            s.analogArrays[static_cast<size_t>(w.precedesIndex)];
        out.push_back(makeError(
            "CAMJ-E008",
            "analogArrays[" +
                elemSel(a.name, static_cast<size_t>(w.precedesIndex)) +
                "]",
            strf("analog array '%s' precedes any mapped stage",
                 a.name.c_str()),
            "map the Input stage to the pixel array"));
    }
}

// ----------------------------------------------------------- rule E009

void
checkAnalogPresence(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    if (s.analogArrays.empty())
        out.push_back(makeError(
            "CAMJ-E009", "analogArrays",
            "no analog arrays (a CIS starts with a pixel array)"));
}

// ------------------------------------------- rule E010 / E011 / W003

void
checkAnalogChain(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    if (s.analogArrays.empty())
        return; // E009 owns the empty chain
    for (size_t i = 0; i + 1 < s.analogArrays.size(); ++i) {
        const AnalogArraySpec &prod = s.analogArrays[i];
        const AnalogArraySpec &cons = s.analogArrays[i + 1];
        const std::string consPath =
            "analogArrays[" + elemSel(cons.name, i + 1) + "]";
        SignalDomain outd = componentOutputDomain(prod.component);
        SignalDomain ind = componentInputDomain(cons.component);
        if (outd != ind) {
            out.push_back(makeError(
                "CAMJ-E010", consPath + ".component",
                strf("'%s' outputs %s but '%s' consumes %s",
                     prod.name.c_str(), signalDomainName(outd),
                     cons.name.c_str(), signalDomainName(ind)),
                strf("insert a %s-to-%s conversion component",
                     signalDomainName(outd), signalDomainName(ind))));
        }
        int64_t produced = prod.outputShape.count();
        int64_t consumed = cons.inputShape.count();
        if (produced != consumed) {
            if (ind == SignalDomain::Voltage) {
                out.push_back(makeWarning(
                    "CAMJ-W003", consPath + ".inputShape",
                    strf("throughput mismatch %s ('%s') -> %s ('%s') "
                         "buffered by the consumer's inherent "
                         "capacitance",
                         prod.outputShape.str().c_str(),
                         prod.name.c_str(),
                         cons.inputShape.str().c_str(),
                         cons.name.c_str())));
            } else {
                out.push_back(makeError(
                    "CAMJ-E011", consPath + ".inputShape",
                    strf("'%s' produces %s per step but '%s' "
                         "consumes %s",
                         prod.name.c_str(),
                         prod.outputShape.str().c_str(),
                         cons.name.c_str(),
                         cons.inputShape.str().c_str()),
                    "insert an analog buffer (e.g. a sample-hold "
                    "array) between them"));
            }
        }
    }
    const AnalogArraySpec &last = s.analogArrays.back();
    SignalDomain outd = componentOutputDomain(last.component);
    if (outd != SignalDomain::Digital) {
        out.push_back(makeError(
            "CAMJ-E010",
            "analogArrays[" +
                elemSel(last.name, s.analogArrays.size() - 1) +
                "].component",
            strf("final array '%s' outputs %s; an ADC (or comparator) "
                 "must sit between the analog and digital domains",
                 last.name.c_str(), signalDomainName(outd))));
    }
}

// ----------------------------------------------------------- rule E012

void
checkDigitalWiring(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    std::set<std::string> stageNames;
    for (const StageSpec &st : s.stages)
        stageNames.insert(st.params.name);
    std::unordered_map<std::string, int> mappedCount;
    for (const auto &[stage, hw] : s.mapping) {
        if (stageNames.count(stage))
            ++mappedCount[hw];
    }

    if (!s.units.empty() && s.adcOutputMemory.empty())
        out.push_back(makeError(
            "CAMJ-E012", "adcOutputMemory",
            "digital units exist but no adcOutputMemory is "
            "configured",
            "name the memory the ADC writes into"));

    for (size_t i = 0; i < s.units.size(); ++i) {
        const UnitSpec &u = s.units[i];
        if (mappedCount[u.name()] == 0)
            continue; // dead unit, owned by the dead-component rule
        const std::string base = "units[" + elemSel(u.name(), i) + "]";
        if (u.inputMemories.empty()) {
            out.push_back(makeError(
                "CAMJ-E012", base + ".inputMemories",
                strf("unit '%s' has no input memory",
                     u.name().c_str())));
        } else if (u.kind == UnitKind::Systolic &&
                   u.inputMemories.size() != 1) {
            out.push_back(makeError(
                "CAMJ-E012", base + ".inputMemories",
                strf("systolic array '%s' needs exactly one input "
                     "buffer (has %zu)",
                     u.name().c_str(), u.inputMemories.size())));
        }
    }
}

// ----------------------------------------------------------- rule E013

void
checkMemoryRanges(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    for (size_t i = 0; i < s.memories.size(); ++i) {
        const MemorySpec &m = s.memories[i];
        const std::string base = "memories[" + elemSel(m.name, i) + "]";
        if (m.capacityWords <= 0)
            out.push_back(makeError(
                "CAMJ-E013", base + ".capacityWords",
                strf("capacity must be positive (got %lld words)",
                     static_cast<long long>(m.capacityWords))));
        const int wordMax =
            m.model == MemoryModel::Regfile ? 256 : 1024;
        if (m.wordBits < 1 || m.wordBits > wordMax)
            out.push_back(makeError(
                "CAMJ-E013", base + ".wordBits",
                strf("word width %d outside [1, %d]", m.wordBits,
                     wordMax)));
        if (m.activeFraction < 0.0 || m.activeFraction > 1.0)
            out.push_back(makeError(
                "CAMJ-E013", base + ".activeFraction",
                strf("active fraction %g outside [0, 1]",
                     m.activeFraction)));

        if ((m.model == MemoryModel::Sram ||
             m.model == MemoryModel::Sttram) &&
            (m.nodeNm < 7 || m.nodeNm > 250))
            out.push_back(makeError(
                "CAMJ-E013", base + ".nodeNm",
                strf("process node %d nm outside supported range "
                     "[7, 250]",
                     m.nodeNm)));

        if (m.capacityWords > 0 && m.wordBits >= 1) {
            const int64_t bytes = m.capacityWords * m.wordBits / 8;
            if (m.model != MemoryModel::Explicit && bytes <= 0)
                out.push_back(makeError(
                    "CAMJ-E013", base + ".capacityWords",
                    strf("capacity %lld words x %d b rounds to zero "
                         "bytes",
                         static_cast<long long>(m.capacityWords),
                         m.wordBits)));
            if (m.model == MemoryModel::Sttram && bytes < 4096)
                out.push_back(makeError(
                    "CAMJ-E013", base + ".capacityWords",
                    strf("%lld B below the 4 KB minimum of the "
                         "STT-RAM model",
                         static_cast<long long>(bytes))));
            if (m.model == MemoryModel::Regfile && bytes > 4096)
                out.push_back(makeError(
                    "CAMJ-E013", base + ".capacityWords",
                    strf("capacity %lld B outside (0, 4096] of the "
                         "register-file model",
                         static_cast<long long>(bytes))));
        }

        if (m.model == MemoryModel::Explicit) {
            if (m.readEnergyPerWord < 0.0 ||
                m.writeEnergyPerWord < 0.0 || m.leakagePower < 0.0)
                out.push_back(makeError("CAMJ-E013", base,
                                        "negative energy/power"));
            if (m.readPorts < 1 || m.writePorts < 1)
                out.push_back(makeError("CAMJ-E013",
                                        base + ".readPorts",
                                        "ports must be >= 1"));
        }
    }
}

// ----------------------------------------------------------- rule E014

void
checkComponentParams(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    for (size_t i = 0; i < s.analogArrays.size(); ++i) {
        const AnalogArraySpec &a = s.analogArrays[i];
        const std::string base =
            "analogArrays[" + elemSel(a.name, i) + "]";
        if (!positiveShape(a.numComponents))
            out.push_back(makeError(
                "CAMJ-E014", base + ".numComponents",
                strf("invalid component count %s",
                     a.numComponents.str().c_str())));
        if (!positiveShape(a.inputShape) ||
            !positiveShape(a.outputShape))
            out.push_back(makeError("CAMJ-E014", base + ".inputShape",
                                    "invalid input/output shape"));
        if (a.componentArea < 0.0)
            out.push_back(makeError("CAMJ-E014",
                                    base + ".componentArea",
                                    "negative component area"));

        const ComponentSpec &c = a.component;
        const std::string cbase = base + ".component";
        switch (c.kind) {
          case ComponentKind::Aps4T:
          case ComponentKind::Aps3T:
          case ComponentKind::PwmPixel:
          case ComponentKind::DvsPixel:
          case ComponentKind::Dps:
            if (c.aps.pixelsPerComponent < 1)
                out.push_back(makeError(
                    "CAMJ-E014", cbase + ".aps.pixelsPerComponent",
                    strf("pixelsPerComponent must be >= 1 (got %d)",
                         c.aps.pixelsPerComponent)));
            if (c.kind != ComponentKind::Dps)
                break;
            [[fallthrough]];
          case ComponentKind::ColumnAdc:
            if (c.adc.bits < 1 || c.adc.bits > 16)
                out.push_back(makeError(
                    "CAMJ-E014", cbase + ".adc.bits",
                    strf("ADC resolution %d outside [1, 16]",
                         c.adc.bits)));
            break;
          case ComponentKind::SwitchedCapMac:
            if (c.sc.numCaps < 1)
                out.push_back(makeError(
                    "CAMJ-E014", cbase + ".switchedCap.numCaps",
                    strf("numCaps must be >= 1 (got %d)",
                         c.sc.numCaps)));
            break;
          case ComponentKind::MaxUnit:
            if (c.maxInputs < 2)
                out.push_back(makeError(
                    "CAMJ-E014", cbase + ".maxInputs",
                    strf("need at least 2 inputs (got %d)",
                         c.maxInputs)));
            break;
          case ComponentKind::Custom: {
            if (c.custom.name.empty())
                out.push_back(makeError("CAMJ-E014",
                                        cbase + ".custom.name",
                                        "empty component name"));
            if (c.custom.cells.empty())
                out.push_back(makeError("CAMJ-E014",
                                        cbase + ".custom.cells",
                                        "component has no cells"));
            for (size_t j = 0; j < c.custom.cells.size(); ++j) {
                const CellSpec &cell = c.custom.cells[j];
                const std::string cp = cbase + ".custom.cells[" +
                                       std::to_string(j) + "]";
                if (cell.spatial < 1 || cell.temporal < 1)
                    out.push_back(makeError(
                        "CAMJ-E014", cp,
                        strf("cell counts must be >= 1 (got %d, %d)",
                             cell.spatial, cell.temporal)));
                switch (cell.cls) {
                  case CellClass::Dynamic:
                    if (cell.caps.empty()) {
                        out.push_back(
                            makeError("CAMJ-E014", cp + ".caps",
                                      "no capacitance nodes"));
                    }
                    for (const CapNode &n : cell.caps) {
                        if (n.capacitance <= 0.0)
                            out.push_back(makeError(
                                "CAMJ-E014", cp + ".caps",
                                strf("non-positive capacitance %g F",
                                     n.capacitance)));
                        if (n.voltageSwing < 0.0)
                            out.push_back(makeError(
                                "CAMJ-E014", cp + ".caps",
                                strf("negative voltage swing %g V",
                                     n.voltageSwing)));
                    }
                    break;
                  case CellClass::StaticBias:
                    if (cell.bias.loadCapacitance <= 0.0)
                        out.push_back(makeError(
                            "CAMJ-E014",
                            cp + ".bias.loadCapacitance",
                            "non-positive load capacitance"));
                    break;
                  case CellClass::NonLinear:
                    if (cell.bits < 1 || cell.bits > 16)
                        out.push_back(makeError(
                            "CAMJ-E014", cp + ".bits",
                            strf("resolution %d outside [1, 16]",
                                 cell.bits)));
                    if (cell.energyOverride < 0.0)
                        out.push_back(
                            makeError("CAMJ-E014",
                                      cp + ".energyOverride",
                                      "negative energy override"));
                    break;
                }
            }
            break;
          }
          default:
            break;
        }
    }
}

// --------------------------------------------------- rule E015 / W004

/** True when @p c contains a NonLinear cell whose per-conversion
 *  energy comes from the Walden-FoM survey (no override), i.e. a
 *  waldenFomMedian() lookup happens at its operating rate. */
bool
fomSurveyed(const ComponentSpec &c)
{
    switch (c.kind) {
      case ComponentKind::Dps:
      case ComponentKind::PwmPixel:
      case ComponentKind::DvsPixel:
      case ComponentKind::MaxUnit:
        return true;
      case ComponentKind::ColumnAdc:
        return c.adc.energyPerConversionOverride == 0.0;
      case ComponentKind::Comparator:
        return c.comparatorEnergyOverride == 0.0;
      case ComponentKind::Custom:
        for (const CellSpec &cell : c.custom.cells) {
            if (cell.cls == CellClass::NonLinear &&
                cell.energyOverride == 0.0)
                return true;
        }
        return false;
      default:
        return false;
    }
}

void
checkAdcThroughput(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    if (s.fps <= 0.0)
        return; // E001 owns that
    AnalogWalk w = analogWalk(s);
    if (!w.ok)
        return;
    // Lower bound on the per-cell sampling rate of a FoM-surveyed
    // converter: the array's time slot T_A = (T_FR - T_D)/numSlots is
    // at most T_FR/numSlots, each component performs ceil(accesses)
    // sequential operations inside it, and a cell's allocated delay
    // never exceeds the component's op delay. So
    //   rate >= ceil(accesses) * numSlots * fps.
    // This NEVER overestimates, which is what lets the grid analyzer
    // prune on it (pruned subset of actually-infeasible).
    const double numSlots =
        static_cast<double>(s.analogArrays.size()) + 1.0;
    for (size_t i = 0; i < s.analogArrays.size(); ++i) {
        const AnalogArraySpec &a = s.analogArrays[i];
        if (!fomSurveyed(a.component))
            continue;
        const double accesses =
            std::ceil(static_cast<double>(w.ops[i]) /
                      static_cast<double>(a.numComponents.count()));
        const double rateLb = accesses * numSlots * s.fps;
        const std::string path =
            "analogArrays[" + elemSel(a.name, i) + "].component";
        if (rateLb > 1e12) {
            out.push_back(makeError(
                "CAMJ-E015", path,
                strf("FoM-surveyed converter in '%s' needs >= %.3g "
                     "S/s per cell (%.0f accesses/component x %.0f "
                     "slots x %g fps), outside the survey's "
                     "(0, 1e12] range",
                     a.name.c_str(), rateLb, accesses, numSlots,
                     s.fps),
                "increase converter parallelism (numComponents), "
                "lower fps, or set an energy override"));
        } else if (rateLb > 1e11) {
            out.push_back(makeWarning(
                "CAMJ-W004", path,
                strf("sampling-rate lower bound %.3g S/s for '%s' is "
                     "in the clamped region of the ADC FoM survey "
                     "(> 1e11 S/s); conversion energy is "
                     "extrapolated",
                     rateLb, a.name.c_str())));
        }
    }
}

// --------------------------------------------------- rule E016 / I002

void
checkCommBoundary(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    auto order = topoOrder(s);
    auto mapping = completeMapping(s);
    if (!order || !mapping || s.stages.empty())
        return;

    std::unordered_map<std::string, Layer> hwLayer;
    for (const AnalogArraySpec &a : s.analogArrays)
        hwLayer.emplace(a.name, a.layer);
    for (const MemorySpec &m : s.memories)
        hwLayer.emplace(m.name, m.layer);
    std::unordered_map<std::string, const UnitSpec *> unitsByName;
    for (const UnitSpec &u : s.units) {
        Layer l = u.kind == UnitKind::Pipeline ? u.pipeline.layer
                                               : u.systolic.layer;
        hwLayer.emplace(u.name(), l);
        unitsByName.emplace(u.name(), &u);
    }
    std::unordered_map<std::string, Layer> memLayer;
    for (const MemorySpec &m : s.memories)
        memLayer.emplace(m.name, m.layer);

    // The topologically-last processing stage (resident-data Inputs
    // are not outputs even when they sort last).
    const StageSpec *lastStage = order->back();
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
        if ((*it)->params.op != StageOp::Input) {
            lastStage = *it;
            break;
        }
    }
    auto lastProbe = tryStage(lastStage->params);
    if (!lastProbe)
        return;
    const int64_t outBytes = s.pipelineOutputBytes >= 0
                                 ? s.pipelineOutputBytes
                                 : lastProbe->outputBytesPerFrame();
    auto outLayerIt = hwLayer.find(mapping->at(lastStage->params.name));
    if (outLayerIt == hwLayer.end())
        return;
    const Layer outLayer = outLayerIt->second;

    bool mipiNeeded = outLayer != Layer::OffChip && outBytes > 0;
    bool tsvNeeded = false;
    // Whether EVERY inter-hardware transfer provably stays on one
    // layer (or crosses the package boundary) — the condition for the
    // "TSV configured but unused" info.
    bool tsvProvablyUnused = true;

    auto cross = [&](Layer from, Layer to, bool provablyNonZero) {
        if (from == to)
            return;
        if (from == Layer::OffChip || to == Layer::OffChip) {
            mipiNeeded |= provablyNonZero;
        } else {
            tsvNeeded |= provablyNonZero;
            tsvProvablyUnused = false;
        }
    };

    std::unordered_map<std::string, int> mappedCount;
    std::unordered_map<std::string, int64_t> mappedOps;
    for (const auto &[stage, hw] : *mapping) {
        ++mappedCount[hw];
        if (auto probe = tryStage(
                std::find_if(s.stages.begin(), s.stages.end(),
                             [&, sn = stage](const StageSpec &st) {
                                 return st.params.name == sn;
                             })
                    ->params))
            mappedOps[hw] += probe->opsPerFrame();
    }

    for (const UnitSpec &u : s.units) {
        if (mappedCount[u.name()] == 0)
            continue; // no traffic: the engine skips it entirely
        const Layer ul = hwLayer.at(u.name());
        for (const std::string &mem : u.inputMemories) {
            auto ml = memLayer.find(mem);
            if (ml == memLayer.end())
                continue;
            bool nonZero = true;
            if (u.kind == UnitKind::Systolic &&
                u.systolic.rows >= 1 && u.systolic.cols >= 1) {
                const int64_t macs = mappedOps[u.name()];
                nonZero = macs / u.systolic.rows +
                              macs / u.systolic.cols >
                          0;
            }
            cross(ml->second, ul, nonZero);
        }
        for (const std::string &mem : u.outputMemories) {
            auto ml = memLayer.find(mem);
            if (ml != memLayer.end())
                cross(ul, ml->second, true);
        }
    }

    AnalogWalk w = analogWalk(s);
    if (!s.adcOutputMemory.empty() && w.ok && w.volume > 0 &&
        !s.analogArrays.empty()) {
        auto ml = memLayer.find(s.adcOutputMemory);
        if (ml != memLayer.end())
            cross(s.analogArrays.back().layer, ml->second, true);
    }

    if (mipiNeeded && !s.mipi.present)
        out.push_back(makeError(
            "CAMJ-E016", "mipi",
            "data provably crosses the package boundary but no MIPI "
            "interface is configured",
            "add a \"mipi\" block (optionally with energyPerByte)"));
    if (tsvNeeded && !s.tsv.present)
        out.push_back(makeError(
            "CAMJ-E016", "tsv",
            "data provably crosses between stacked layers but no "
            "uTSV interface is configured",
            "add a \"tsv\" block (optionally with energyPerByte)"));

    bool anyOffChip = false;
    for (const auto &[name, layer] : hwLayer)
        anyOffChip |= layer == Layer::OffChip;
    if (s.mipi.present && !anyOffChip && outBytes == 0)
        out.push_back(makeInfo(
            "CAMJ-I002", "mipi",
            "MIPI interface configured but no data crosses the "
            "package boundary"));
    if (s.tsv.present && tsvProvablyUnused)
        out.push_back(makeInfo(
            "CAMJ-I002", "tsv",
            "uTSV interface configured but no data crosses between "
            "stacked layers"));
}

// ----------------------------------------------------------- rule E017

void
checkUnitParams(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    for (size_t i = 0; i < s.units.size(); ++i) {
        const UnitSpec &u = s.units[i];
        const std::string base = "units[" + elemSel(u.name(), i) + "]";
        if (u.kind == UnitKind::Pipeline) {
            const auto &p = u.pipeline;
            if (!positiveShape(p.inputPixelsPerCycle) ||
                !positiveShape(p.outputPixelsPerCycle))
                out.push_back(
                    makeError("CAMJ-E017",
                              base + ".inputPixelsPerCycle",
                              "invalid per-cycle shapes"));
            if (p.energyPerCycle < 0.0)
                out.push_back(makeError("CAMJ-E017",
                                        base + ".energyPerCycle",
                                        "negative energy per cycle"));
            if (p.numStages < 1)
                out.push_back(makeError(
                    "CAMJ-E017", base + ".numStages",
                    strf("pipeline depth must be >= 1 (got %d)",
                         p.numStages)));
            if (p.clock <= 0.0)
                out.push_back(makeError("CAMJ-E017", base + ".clock",
                                        "non-positive clock"));
            if (p.opsPerCycle < 0.0)
                out.push_back(makeError("CAMJ-E017",
                                        base + ".opsPerCycle",
                                        "negative ops per cycle"));
        } else {
            const auto &p = u.systolic;
            if (p.rows < 1 || p.cols < 1)
                out.push_back(makeError(
                    "CAMJ-E017", base + ".rows",
                    strf("dimensions must be >= 1 (got %dx%d)",
                         p.rows, p.cols)));
            if (p.energyPerMac < 0.0)
                out.push_back(makeError("CAMJ-E017",
                                        base + ".energyPerMac",
                                        "negative per-MAC energy"));
            if (p.clock <= 0.0)
                out.push_back(makeError("CAMJ-E017", base + ".clock",
                                        "non-positive clock"));
        }
    }
}

// ----------------------------------------------------------- rule W001

void
checkDeadComponents(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    std::set<std::string> referencedMems;
    for (const UnitSpec &u : s.units) {
        for (const std::string &m : u.inputMemories)
            referencedMems.insert(m);
        for (const std::string &m : u.outputMemories)
            referencedMems.insert(m);
    }
    if (!s.adcOutputMemory.empty())
        referencedMems.insert(s.adcOutputMemory);
    std::set<std::string> mappedHw;
    for (const auto &[stage, hw] : s.mapping)
        mappedHw.insert(hw);

    for (size_t i = 0; i < s.memories.size(); ++i) {
        const MemorySpec &m = s.memories[i];
        if (!referencedMems.count(m.name) && !mappedHw.count(m.name))
            out.push_back(makeWarning(
                "CAMJ-W001", "memories[" + elemSel(m.name, i) + "]",
                strf("memory '%s' is not referenced by any unit, "
                     "mapping, or adcOutputMemory",
                     m.name.c_str()),
                "remove it or wire it up"));
    }
    for (size_t i = 0; i < s.units.size(); ++i) {
        const UnitSpec &u = s.units[i];
        if (!mappedHw.count(u.name()))
            out.push_back(makeWarning(
                "CAMJ-W001", "units[" + elemSel(u.name(), i) + "]",
                strf("compute unit '%s' has no mapped stages",
                     u.name().c_str()),
                "map a stage onto it or remove it"));
    }
}

// ----------------------------------------------------------- rule W002

void
checkMagnitudes(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    if (s.fps > 1e5)
        out.push_back(makeWarning(
            "CAMJ-W002", "fps",
            strf("fps %g is unusually high (even event cameras stay "
                 "below 100k effective fps)",
                 s.fps)));
    if (s.digitalClock > 1e10)
        out.push_back(makeWarning(
            "CAMJ-W002", "digitalClock",
            strf("digital clock %g Hz is above 10 GHz", s.digitalClock)));
    else if (s.digitalClock > 0.0 && s.digitalClock < 1e3)
        out.push_back(makeWarning(
            "CAMJ-W002", "digitalClock",
            strf("digital clock %g Hz is below 1 kHz",
                 s.digitalClock)));
    for (size_t i = 0; i < s.units.size(); ++i) {
        const UnitSpec &u = s.units[i];
        const std::string base = "units[" + elemSel(u.name(), i) + "]";
        if (u.kind == UnitKind::Systolic &&
            u.systolic.energyPerMac > 1e-9)
            out.push_back(makeWarning(
                "CAMJ-W002", base + ".energyPerMac",
                strf("%g J per MAC is unusually large (typical: "
                     "0.1-10 pJ)",
                     u.systolic.energyPerMac)));
        if (u.kind == UnitKind::Pipeline &&
            u.pipeline.energyPerCycle > 1e-6)
            out.push_back(makeWarning(
                "CAMJ-W002", base + ".energyPerCycle",
                strf("%g J per cycle is unusually large",
                     u.pipeline.energyPerCycle)));
    }
    for (size_t i = 0; i < s.memories.size(); ++i) {
        const MemorySpec &m = s.memories[i];
        if (m.capacityWords > 0 && m.wordBits > 0 &&
            m.capacityWords * m.wordBits > (int64_t{1} << 33))
            out.push_back(makeWarning(
                "CAMJ-W002",
                "memories[" + elemSel(m.name, i) + "].capacityWords",
                strf("memory '%s' holds more than 1 GB — unusual for "
                     "an in-sensor buffer",
                     m.name.c_str())));
    }
    for (size_t i = 0; i < s.analogArrays.size(); ++i) {
        const AnalogArraySpec &a = s.analogArrays[i];
        if (a.componentArea > 1e-4)
            out.push_back(makeWarning(
                "CAMJ-W002",
                "analogArrays[" + elemSel(a.name, i) +
                    "].componentArea",
                strf("component area %g m^2 exceeds 1 cm^2",
                     a.componentArea)));
    }
    if (s.mipi.present && s.mipi.energyPerByte > 1e-6)
        out.push_back(makeWarning(
            "CAMJ-W002", "mipi.energyPerByte",
            strf("%g J/B is unusually large for a MIPI link",
                 s.mipi.energyPerByte)));
    if (s.tsv.present && s.tsv.energyPerByte > 1e-6)
        out.push_back(makeWarning(
            "CAMJ-W002", "tsv.energyPerByte",
            strf("%g J/B is unusually large for a uTSV link",
                 s.tsv.energyPerByte)));
}

// ---------------------------------------------------- rule W007 / I001

void
checkResidentInputs(const DesignSpec &s, std::vector<Diagnostic> &out)
{
    std::unordered_map<std::string, const StageSpec *> byName;
    for (const StageSpec &st : s.stages)
        byName.emplace(st.params.name, &st);
    std::unordered_map<std::string, const MemorySpec *> mems;
    for (const MemorySpec &m : s.memories)
        mems.emplace(m.name, &m);

    for (size_t i = 0; i < s.mapping.size(); ++i) {
        const auto &[stage, hw] = s.mapping[i];
        auto st = byName.find(stage);
        auto mem = mems.find(hw);
        if (st == byName.end() || mem == mems.end())
            continue;
        if (st->second->params.op != StageOp::Input)
            continue;
        out.push_back(makeInfo(
            "CAMJ-I001", "mapping[" + std::to_string(i) + "].hw",
            strf("Input stage '%s' resides in memory '%s' (prefilled "
                 "frame: reads always succeed)",
                 stage.c_str(), hw.c_str())));
        auto probe = tryStage(st->second->params);
        if (!probe)
            continue;
        const int64_t frameBits = probe->outputsPerFrame() *
                                  probe->bitDepth();
        const int64_t memBits =
            mem->second->capacityWords * mem->second->wordBits;
        if (memBits > 0 && frameBits > memBits)
            out.push_back(makeWarning(
                "CAMJ-W007",
                "memories[" + mem->second->name + "].capacityWords",
                strf("memory '%s' (%lld b) is smaller than the "
                     "resident frame of Input stage '%s' (%lld b)",
                     hw.c_str(), static_cast<long long>(memBits),
                     stage.c_str(),
                     static_cast<long long>(frameBits)),
                "grow capacityWords or map the Input stage "
                "elsewhere"));
    }
}

// ------------------------------------------------ W005/W006: key lint

int
editDistance(const std::string &a, const std::string &b)
{
    std::vector<int> prev(b.size() + 1), cur(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        prev[j] = static_cast<int>(j);
    for (size_t i = 1; i <= a.size(); ++i) {
        cur[0] = static_cast<int>(i);
        for (size_t j = 1; j <= b.size(); ++j) {
            int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

struct KeyContext
{
    std::vector<const char *> known;
    /** Renamed keys the parser silently ignores: old -> current. */
    std::vector<std::pair<const char *, const char *>> renamed;
};

void
checkKeys(const Value &obj, const KeyContext &ctx,
          const std::string &path, std::vector<Diagnostic> &out)
{
    if (!obj.isObject())
        return;
    for (const auto &[key, value] : obj.asObject()) {
        (void)value;
        bool known = false;
        for (const char *k : ctx.known)
            known |= key == k;
        if (known)
            continue;
        const char *renamedTo = nullptr;
        for (const auto &[from, to] : ctx.renamed) {
            if (key == from)
                renamedTo = to;
        }
        const std::string at =
            path.empty() ? key : path + "." + key;
        if (renamedTo) {
            out.push_back(makeWarning(
                "CAMJ-W006", at,
                strf("key '%s' is an obsolete spelling and is "
                     "ignored by the parser",
                     key.c_str()),
                strf("use '%s'", renamedTo)));
            continue;
        }
        std::string hint;
        int bestDist = 3; // suggest only close misses
        for (const char *k : ctx.known) {
            int d = editDistance(key, k);
            if (d < bestDist) {
                bestDist = d;
                hint = strf("did you mean '%s'?", k);
            }
        }
        out.push_back(makeWarning(
            "CAMJ-W005", at,
            strf("unknown key '%s' is ignored by the parser",
                 key.c_str()),
            hint));
    }
}

const Value *
member(const Value &obj, const char *key)
{
    return obj.isObject() ? obj.find(key) : nullptr;
}

void
lintArrayOfObjects(const Value *arr, const std::string &path,
                   const std::function<void(const Value &,
                                            const std::string &)> &fn)
{
    if (!arr || !arr->isArray())
        return;
    const auto &elems = arr->asArray();
    for (size_t i = 0; i < elems.size(); ++i) {
        std::string p = path + "[";
        if (const Value *n = member(elems[i], "name");
            n && n->isString() && !n->asString().empty())
            p += n->asString();
        else
            p += std::to_string(i);
        p += "]";
        fn(elems[i], p);
    }
}

} // namespace

std::vector<Diagnostic>
lintDocumentKeys(const Value &doc)
{
    std::vector<Diagnostic> out;
    if (!doc.isObject())
        return out;

    static const KeyContext kTop{
        {"camjSpecVersion", "name", "fps", "digitalClock", "stages",
         "analogArrays", "memories", "units", "adcOutputMemory",
         "mipi", "tsv", "pipelineOutputBytes", "mapping", "sweepGrid",
         "shard"},
        {{"frame_rate", "fps"},
         {"frameRate", "fps"},
         {"clock", "digitalClock"},
         {"sw_stages", "stages"},
         {"mappings", "mapping"}}};
    static const KeyContext kStage{
        {"name", "op", "inputSize", "outputSize", "kernel", "stride",
         "bitDepth", "opsPerOutput", "inputs"},
        {{"opsPerOutputOverride", "opsPerOutput"},
         {"bit_depth", "bitDepth"}}};
    static const KeyContext kMemory{
        {"name", "layer", "kind", "model", "capacityWords",
         "wordBits", "activeFraction", "nodeNm", "readEnergyPerWord",
         "writeEnergyPerWord", "leakagePower", "readPorts",
         "writePorts", "area"},
        {{"node_nm", "nodeNm"}, {"capacity", "capacityWords"}}};
    static const KeyContext kArray{
        {"name", "layer", "role", "numComponents", "inputShape",
         "outputShape", "componentArea", "component"},
        {}};
    static const KeyContext kComponent{
        {"kind", "aps", "adc", "switchedCap", "maxInputs",
         "energyOverride", "loadCap", "vdda", "analogMemory",
         "converter", "custom"},
        {{"comparatorEnergyOverride", "energyOverride"}}};
    static const KeyContext kAps{
        {"photodiodeCap", "floatingDiffusionCap", "columnLoadCap",
         "pixelSwing", "vdda", "correlatedDoubleSampling",
         "pixelsPerComponent"},
        {}};
    static const KeyContext kAdc{
        {"bits", "energyPerConversionOverride"}, {}};
    static const KeyContext kSc{
        {"unitCap", "numCaps", "vswing", "vdda", "bits", "active",
         "gain", "gmOverId"},
        {}};
    static const KeyContext kAnalogMem{
        {"bits", "vswing", "vdda", "storageCap", "readoutLoadCap",
         "readsPerValue"},
        {}};
    static const KeyContext kConv{
        {"cap", "bits", "vswing", "vdda", "gmOverId"}, {}};
    static const KeyContext kCustom{
        {"name", "inputDomain", "outputDomain", "cells"}, {}};
    static const KeyContext kCell{
        {"class", "name", "caps", "bias", "bits", "energyOverride",
         "spatial", "temporal", "scope"},
        {}};
    static const KeyContext kCap{{"capacitance", "swing"}, {}};
    static const KeyContext kBias{
        {"loadCapacitance", "voltageSwing", "vdda", "gain",
         "gmOverId", "fixedBandwidth", "mode"},
        {}};
    static const KeyContext kPipelineUnit{
        {"kind", "name", "layer", "inputPixelsPerCycle",
         "outputPixelsPerCycle", "energyPerCycle", "numStages",
         "clock", "opsPerCycle", "area", "inputMemories",
         "outputMemories"},
        {}};
    static const KeyContext kSystolicUnit{
        {"kind", "name", "layer", "rows", "cols", "energyPerMac",
         "clock", "peArea", "inputMemories", "outputMemories"},
        {}};
    static const KeyContext kComm{{"energyPerByte"}, {}};
    static const KeyContext kMapPair{{"stage", "hw"}, {}};
    static const KeyContext kGrid{{"axes", "points"}, {}};
    static const KeyContext kAxis{{"name", "path", "values"}, {}};
    static const KeyContext kShard{
        {"mode", "index", "count", "total", "begin", "end",
         "indices", "sweepGrid"},
        {}};

    checkKeys(doc, kTop, "", out);
    lintArrayOfObjects(member(doc, "stages"), "stages",
                       [&](const Value &v, const std::string &p) {
                           checkKeys(v, kStage, p, out);
                       });
    lintArrayOfObjects(
        member(doc, "memories"), "memories",
        [&](const Value &v, const std::string &p) {
            checkKeys(v, kMemory, p, out);
        });
    lintArrayOfObjects(
        member(doc, "analogArrays"), "analogArrays",
        [&](const Value &v, const std::string &p) {
            checkKeys(v, kArray, p, out);
            const Value *c = member(v, "component");
            if (!c)
                return;
            checkKeys(*c, kComponent, p + ".component", out);
            if (const Value *b = member(*c, "aps"))
                checkKeys(*b, kAps, p + ".component.aps", out);
            if (const Value *b = member(*c, "adc"))
                checkKeys(*b, kAdc, p + ".component.adc", out);
            if (const Value *b = member(*c, "switchedCap"))
                checkKeys(*b, kSc, p + ".component.switchedCap", out);
            if (const Value *b = member(*c, "analogMemory"))
                checkKeys(*b, kAnalogMem,
                          p + ".component.analogMemory", out);
            if (const Value *b = member(*c, "converter"))
                checkKeys(*b, kConv, p + ".component.converter", out);
            if (const Value *cu = member(*c, "custom")) {
                checkKeys(*cu, kCustom, p + ".component.custom", out);
                lintArrayOfObjects(
                    member(*cu, "cells"), p + ".component.custom.cells",
                    [&](const Value &cell, const std::string &cp) {
                        checkKeys(cell, kCell, cp, out);
                        lintArrayOfObjects(
                            member(cell, "caps"), cp + ".caps",
                            [&](const Value &cap,
                                const std::string &capp) {
                                checkKeys(cap, kCap, capp, out);
                            });
                        if (const Value *b = member(cell, "bias"))
                            checkKeys(*b, kBias, cp + ".bias", out);
                    });
            }
        });
    lintArrayOfObjects(
        member(doc, "units"), "units",
        [&](const Value &v, const std::string &p) {
            const Value *kind = member(v, "kind");
            const bool systolic = kind && kind->isString() &&
                                  kind->asString() == "systolic";
            checkKeys(v, systolic ? kSystolicUnit : kPipelineUnit, p,
                      out);
        });
    if (const Value *m = member(doc, "mipi"))
        checkKeys(*m, kComm, "mipi", out);
    if (const Value *t = member(doc, "tsv"))
        checkKeys(*t, kComm, "tsv", out);
    lintArrayOfObjects(member(doc, "mapping"), "mapping",
                       [&](const Value &v, const std::string &p) {
                           checkKeys(v, kMapPair, p, out);
                       });
    if (const Value *g = member(doc, "sweepGrid")) {
        checkKeys(*g, kGrid, "sweepGrid", out);
        lintArrayOfObjects(member(*g, "axes"), "sweepGrid.axes",
                           [&](const Value &v, const std::string &p) {
                               checkKeys(v, kAxis, p, out);
                           });
    }
    if (const Value *sh = member(doc, "shard"))
        checkKeys(*sh, kShard, "shard", out);
    return out;
}

// --------------------------------------------------- domain table

SignalDomain
componentInputDomain(const ComponentSpec &c)
{
    switch (c.kind) {
      case ComponentKind::Aps4T:
      case ComponentKind::Aps3T:
      case ComponentKind::Dps:
      case ComponentKind::PwmPixel:
      case ComponentKind::DvsPixel:
        return SignalDomain::Optical;
      case ComponentKind::ChargeAdder:
      case ComponentKind::ChargeToVoltage:
        return SignalDomain::Charge;
      case ComponentKind::CurrentToVoltage:
        return SignalDomain::Current;
      case ComponentKind::TimeToVoltage:
        return SignalDomain::Time;
      case ComponentKind::Custom:
        return c.custom.input;
      default:
        return SignalDomain::Voltage;
    }
}

SignalDomain
componentOutputDomain(const ComponentSpec &c)
{
    switch (c.kind) {
      case ComponentKind::Dps:
      case ComponentKind::DvsPixel:
      case ComponentKind::ColumnAdc:
      case ComponentKind::Comparator:
        return SignalDomain::Digital;
      case ComponentKind::PwmPixel:
        return SignalDomain::Time;
      case ComponentKind::ChargeAdder:
        return SignalDomain::Charge;
      case ComponentKind::Custom:
        return c.custom.output;
      default:
        return SignalDomain::Voltage;
    }
}

// ------------------------------------------------------- the analyzer

SpecAnalyzer::SpecAnalyzer()
{
    auto add = [&](const char *name, const char *code, auto fn) {
        rules_.push_back({name, code, fn});
    };
    add("top-level-params", "CAMJ-E001", checkTopLevel);
    add("duplicate-names", "CAMJ-E002", checkDuplicateNames);
    add("dangling-references", "CAMJ-E003", checkDanglingRefs);
    add("stage-arity", "CAMJ-E004", checkStageArity);
    add("stage-geometry", "CAMJ-E005", checkStageGeometry);
    add("dag-edge-shapes", "CAMJ-E006", checkDagShapes);
    add("dag-structure", "CAMJ-E007", checkDagStructure);
    add("mapping", "CAMJ-E008", checkMapping);
    add("analog-presence", "CAMJ-E009", checkAnalogPresence);
    add("analog-chain", "CAMJ-E010", checkAnalogChain);
    add("digital-wiring", "CAMJ-E012", checkDigitalWiring);
    add("memory-ranges", "CAMJ-E013", checkMemoryRanges);
    add("component-params", "CAMJ-E014", checkComponentParams);
    add("adc-throughput", "CAMJ-E015", checkAdcThroughput);
    add("comm-boundary", "CAMJ-E016", checkCommBoundary);
    add("unit-params", "CAMJ-E017", checkUnitParams);
    add("dead-components", "CAMJ-W001", checkDeadComponents);
    add("suspicious-magnitudes", "CAMJ-W002", checkMagnitudes);
    add("resident-inputs", "CAMJ-I001", checkResidentInputs);
}

std::vector<Diagnostic>
SpecAnalyzer::analyze(const DesignSpec &spec) const
{
    std::vector<Diagnostic> out;
    for (const AnalysisRule &r : rules_)
        r.check(spec, out);
    return out;
}

std::vector<Diagnostic>
SpecAnalyzer::analyzeDocument(const Value &doc) const
{
    std::vector<Diagnostic> out = lintDocumentKeys(doc);
    DesignSpec parsed;
    try {
        parsed = spec::fromJsonValue(doc);
    } catch (const ConfigError &e) {
        out.push_back(makeError(e.code(), "", e.what()));
        return out;
    }
    std::vector<Diagnostic> specDiags = analyze(parsed);
    out.insert(out.end(), specDiags.begin(), specDiags.end());
    return out;
}

} // namespace camj::analysis

#include "analysis/analyzer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

/** "collection[selector]", an element's path, built for a finding:
 *  the selector is the element's name, or its index when the name is
 *  empty (the name rules report the emptiness itself). */
std::string
elemPath(const char *collection, const std::string &name, size_t index)
{
    return std::string(collection) + "[" +
           (name.empty() ? std::to_string(index) : name) + "]";
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

Layer
unitLayer(const UnitSpec &u)
{
    return u.kind == UnitKind::Pipeline ? u.pipeline.layer
                                        : u.systolic.layer;
}

constexpr size_t kNone = static_cast<size_t>(-1);

std::string_view
nameOf(const StageSpec &st)
{
    return st.params.name;
}

std::string_view
nameOf(const AnalogArraySpec &a)
{
    return a.name;
}

std::string_view
nameOf(const MemorySpec &m)
{
    return m.name;
}

std::string_view
nameOf(const UnitSpec &u)
{
    return u.name();
}

/** A mapping entry's stage. */
std::string_view
nameOf(const std::pair<std::string, std::string> &entry)
{
    return entry.first;
}

/** One kind of element's names in an open-addressing hash table that
 *  keeps the first element of each name, as the rules' name maps did. */
template <class Elem>
class NameIndex
{
  public:
    explicit NameIndex(const std::vector<Elem> &elems) : elems_(elems)
    {
        size_t size = 8;
        while (size < 2 * elems.size())
            size *= 2;
        slots_.assign(size, kNone);
        for (size_t i = 0; i < elems.size(); ++i) {
            size_t &slot = slots_[position(nameOf(elems[i]))];
            if (slot == kNone)
                slot = i;
        }
    }

    /** Index of the first element named @p name; kNone if none is. */
    size_t first(std::string_view name) const
    {
        return slots_[position(name)];
    }

    bool has(std::string_view name) const { return first(name) != kNone; }

    /** Append every element's name (a finding's hint list). */
    void appendNames(std::vector<std::string> &out) const
    {
        for (const Elem &e : elems_)
            out.emplace_back(nameOf(e));
    }

  private:
    const std::vector<Elem> &elems_;
    /** Element index per slot; kNone marks an empty slot. */
    std::vector<size_t> slots_;

    /** The slot holding @p name, or the empty slot it would take. */
    size_t position(std::string_view name) const
    {
        uint64_t h = 0xcbf29ce484222325ull; // FNV-1a
        for (const unsigned char c : name) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        const size_t mask = slots_.size() - 1;
        size_t k = static_cast<size_t>(h ^ (h >> 32)) & mask;
        while (slots_[k] != kNone && nameOf(elems_[slots_[k]]) != name)
            k = (k + 1) & mask;
        return k;
    }
};

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

/** A hardware name resolved to the first analog array, memory and
 *  unit carrying it (kNone where none does). */
struct HwRef
{
    size_t array = kNone;
    size_t memory = kNone;
    size_t unit = kNone;

    bool found() const
    {
        return array != kNone || memory != kNone || unit != kNone;
    }
};

/** A mapping entry's stage and hardware, resolved. */
struct MappingRef
{
    size_t stage = kNone;
    HwRef hw;
};

/** Element lookups by name over one spec, and the mapping resolved
 *  through them once. */
struct Names
{
    explicit Names(const DesignSpec &s)
        : stages(s.stages), arrays(s.analogArrays), memories(s.memories),
          units(s.units), mappedStages(s.mapping)
    {
        mapping.reserve(s.mapping.size());
        for (const auto &[stage, hw] : s.mapping)
            mapping.push_back({stages.first(stage), this->hw(hw)});
    }

    HwRef hw(std::string_view name) const
    {
        return {arrays.first(name), memories.first(name),
                units.first(name)};
    }

    NameIndex<StageSpec> stages;
    NameIndex<AnalogArraySpec> arrays;
    NameIndex<MemorySpec> memories;
    NameIndex<UnitSpec> units;
    /** The stage names the mapping entries list. */
    NameIndex<std::pair<std::string, std::string>> mappedStages;
    /** Per mapping entry, its stage and hardware. */
    std::vector<MappingRef> mapping;
};

} // namespace

/**
 * What the rules derive from one spec, each piece built on first use
 * and then shared: the name lookups, each stage input resolved to its
 * stage, each stage's Stage probe, the topological order, the complete
 * mapping and the analog walk. analyze() runs the whole catalogue on
 * one view; a grid probe runs one rule on a view of its own and so
 * builds only what that rule reads.
 */
class SpecView
{
  public:
    explicit SpecView(const DesignSpec &spec) : spec(spec) {}

    const DesignSpec &spec;

    const Names &names()
    {
        if (!names_)
            buildNames();
        return *names_;
    }

    /** Stage index input @p j of stage @p i names; kNone if none. */
    size_t input(size_t i, size_t j)
    {
        names();
        return inputs_[inputBegin_[i] + j];
    }

    /** Every stage name is non-empty and distinct (the duplicate-name
     *  rule owns the degenerate cases). */
    bool stagesUnique()
    {
        names();
        return stagesUnique_;
    }

    /** Every stage input names a stage. */
    bool inputsResolve()
    {
        names();
        return std::find(inputs_.begin(), inputs_.end(), kNone) ==
               inputs_.end();
    }

    /** Position of @p hw's first element in the order analog arrays,
     *  memories, units (the hardware namespace); kNone if none. */
    size_t hwOrdinal(const HwRef &hw) const
    {
        if (hw.array != kNone)
            return hw.array;
        if (hw.memory != kNone)
            return spec.analogArrays.size() + hw.memory;
        if (hw.unit != kNone)
            return spec.analogArrays.size() + spec.memories.size() +
                   hw.unit;
        return kNone;
    }

    /** Layer of @p hw's first element in that order. */
    std::optional<Layer> hwLayer(const HwRef &hw) const
    {
        if (hw.array != kNone)
            return spec.analogArrays[hw.array].layer;
        if (hw.memory != kNone)
            return spec.memories[hw.memory].layer;
        if (hw.unit != kNone)
            return unitLayer(spec.units[hw.unit]);
        return std::nullopt;
    }

    /** Stage @p i's probe; nullptr when its geometry is invalid. */
    const Stage *probe(size_t i)
    {
        if (!probesBuilt_) {
            probesBuilt_ = true;
            probes_.reserve(spec.stages.size());
            for (const StageSpec &st : spec.stages)
                probes_.push_back(tryStage(st.params));
        }
        return probes_[i] ? &*probes_[i] : nullptr;
    }

    /** Kahn topological order of stage indices; nullptr when the graph
     *  has unresolved edges, duplicate names, or a cycle. */
    const std::vector<size_t> *topoOrder()
    {
        if (!topoBuilt_) {
            topoBuilt_ = true;
            buildTopoOrder();
        }
        return topoOk_ ? &topo_ : nullptr;
    }

    /** Per stage, the index of its mapping entry; nullptr when the
     *  mapping is incomplete, duplicated, or dangling (other rules
     *  own those). */
    const std::vector<size_t> *completeMapping()
    {
        if (!mappingBuilt_) {
            mappingBuilt_ = true;
            buildCompleteMapping();
        }
        return mappingOk_ ? &stageEntry_ : nullptr;
    }

    const AnalogWalk &analogWalk()
    {
        if (!walkBuilt_) {
            walkBuilt_ = true;
            buildAnalogWalk();
        }
        return walk_;
    }

  private:
    std::optional<Names> names_;
    /** Resolved stage inputs, stage after stage. */
    std::vector<size_t> inputs_;
    /** Where each stage's inputs start in inputs_. */
    std::vector<size_t> inputBegin_;
    bool stagesUnique_ = false;

    bool probesBuilt_ = false;
    std::vector<std::optional<Stage>> probes_;

    bool topoBuilt_ = false;
    bool topoOk_ = false;
    std::vector<size_t> topo_;

    bool mappingBuilt_ = false;
    bool mappingOk_ = false;
    std::vector<size_t> stageEntry_;

    bool walkBuilt_ = false;
    AnalogWalk walk_;

    void buildNames()
    {
        names_.emplace(spec);
        const auto &stages = names_->stages;
        stagesUnique_ = true;
        inputBegin_.reserve(spec.stages.size() + 1);
        for (size_t i = 0; i < spec.stages.size(); ++i) {
            const StageSpec &st = spec.stages[i];
            stagesUnique_ = stagesUnique_ && !st.params.name.empty() &&
                            stages.first(st.params.name) == i;
            inputBegin_.push_back(inputs_.size());
            for (const std::string &in : st.inputs)
                inputs_.push_back(stages.first(in));
        }
        inputBegin_.push_back(inputs_.size());
    }

    void buildTopoOrder()
    {
        if (!stagesUnique() || !inputsResolve())
            return;
        // The order shows in findings (E016's last processing stage,
        // each array's last mapped stage in the analog walk), so it is
        // fixed: ready stages leave first in, first out, seeded in
        // declaration order, and a producer releases its consumers in
        // declaration order (CSR by producer).
        const size_t n = spec.stages.size();
        std::vector<size_t> begin(n + 1, 0);
        for (size_t p : inputs_)
            ++begin[p + 1];
        for (size_t i = 0; i < n; ++i)
            begin[i + 1] += begin[i];
        std::vector<size_t> consumers(inputs_.size());
        std::vector<size_t> fill(begin.begin(), begin.end() - 1);
        std::vector<int> indegree(n, 0);
        for (size_t c = 0; c < n; ++c) {
            for (size_t e = inputBegin_[c]; e < inputBegin_[c + 1]; ++e) {
                consumers[fill[inputs_[e]]++] = c;
                ++indegree[c];
            }
        }
        // topo_ doubles as the FIFO of ready stages.
        topo_.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            if (indegree[i] == 0)
                topo_.push_back(i);
        }
        for (size_t head = 0; head < topo_.size(); ++head) {
            const size_t s = topo_[head];
            for (size_t k = begin[s]; k < begin[s + 1]; ++k) {
                if (--indegree[consumers[k]] == 0)
                    topo_.push_back(consumers[k]);
            }
        }
        topoOk_ = topo_.size() == n;
    }

    void buildCompleteMapping()
    {
        if (!stagesUnique())
            return;
        stageEntry_.assign(spec.stages.size(), kNone);
        for (size_t i = 0; i < spec.mapping.size(); ++i) {
            const size_t st = names_->mapping[i].stage;
            if (st == kNone || stageEntry_[st] != kNone)
                return;
            stageEntry_[st] = i;
        }
        mappingOk_ = spec.mapping.size() == spec.stages.size();
    }

    void buildAnalogWalk()
    {
        AnalogWalk &w = walk_;
        if (spec.analogArrays.empty())
            return;
        const std::vector<size_t> *order = topoOrder();
        const std::vector<size_t> *entry = completeMapping();
        if (!order || !entry)
            return;
        for (size_t s : *order) {
            if (!probe(s))
                return;
        }

        w.ok = true;
        w.ops.assign(spec.analogArrays.size(), 0);
        for (size_t i = 0; i < spec.analogArrays.size(); ++i) {
            const AnalogArraySpec &a = spec.analogArrays[i];
            if (!positiveShape(a.numComponents)) {
                w.ok = false; // component-param rule owns this
                return;
            }
            const Stage *last = nullptr;
            for (size_t s : *order) {
                if (spec.mapping[(*entry)[s]].second == a.name)
                    last = probe(s);
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
                    return;
                }
                w.ops[i] = w.volume; // pass-through (e.g. an ADC array)
            }
        }
    }
};

namespace
{

// ----------------------------------------------------------- rule E001

void
checkTopLevel(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
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
checkDuplicateNames(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    const Names &names = v.names();
    for (size_t i = 0; i < s.stages.size(); ++i) {
        const std::string &n = s.stages[i].params.name;
        if (n.empty()) {
            out.push_back(makeError("CAMJ-E002",
                                    "stages[" + std::to_string(i) + "]",
                                    "a stage has an empty name"));
        } else if (names.stages.first(n) != i) {
            out.push_back(makeError("CAMJ-E002", "stages[" + n + "]",
                                    strf("duplicate stage '%s'",
                                         n.c_str())));
        }
    }

    // One namespace across analog arrays, memories and units, in that
    // order: an element is a duplicate when an earlier one has its name.
    size_t ordinal = 0;
    auto checkHw = [&](const std::string &n, const char *what,
                       const char *collection, size_t i) {
        if (n.empty()) {
            out.push_back(makeError("CAMJ-E002", elemPath(collection, n, i),
                                    strf("a %s has an empty name",
                                         what)));
        } else if (v.hwOrdinal(names.hw(n)) != ordinal) {
            out.push_back(makeError(
                "CAMJ-E002", elemPath(collection, n, i),
                strf("duplicate hardware name '%s'", n.c_str())));
        }
        ++ordinal;
    };
    for (size_t i = 0; i < s.analogArrays.size(); ++i)
        checkHw(s.analogArrays[i].name, "analog array", "analogArrays", i);
    for (size_t i = 0; i < s.memories.size(); ++i)
        checkHw(s.memories[i].name, "memory", "memories", i);
    for (size_t i = 0; i < s.units.size(); ++i)
        checkHw(s.units[i].name(), "digital unit", "units", i);
}

// ----------------------------------------------------------- rule E003

/** A hint's sorted, de-duplicated name list. */
template <class... Index>
std::string
nameList(const Index &...indexes)
{
    std::vector<std::string> names;
    (indexes.appendNames(names), ...);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return spec::joinNames(names);
}

void
checkDanglingRefs(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    const Names &names = v.names();

    for (size_t i = 0; i < s.stages.size(); ++i) {
        const StageSpec &st = s.stages[i];
        for (size_t j = 0; j < st.inputs.size(); ++j) {
            if (v.input(i, j) == kNone) {
                out.push_back(makeError(
                    "CAMJ-E003",
                    elemPath("stages", st.params.name, i) + ".inputs[" +
                        std::to_string(j) + "]",
                    strf("stage '%s' reads unknown stage '%s'",
                         st.params.name.c_str(),
                         st.inputs[j].c_str()),
                    "registered stages: " + nameList(names.stages)));
            }
        }
    }
    for (size_t i = 0; i < s.units.size(); ++i) {
        const UnitSpec &u = s.units[i];
        auto checkMems = [&](const std::vector<std::string> &mems,
                             const char *field) {
            for (size_t j = 0; j < mems.size(); ++j) {
                if (!names.memories.has(mems[j])) {
                    out.push_back(makeError(
                        "CAMJ-E003",
                        elemPath("units", u.name(), i) + "." + field +
                            "[" + std::to_string(j) + "]",
                        strf("unit '%s' references unknown memory "
                             "'%s'",
                             u.name().c_str(), mems[j].c_str()),
                        "registered memories: " +
                            nameList(names.memories)));
                }
            }
        };
        checkMems(u.inputMemories, "inputMemories");
        checkMems(u.outputMemories, "outputMemories");
    }
    if (!s.adcOutputMemory.empty() &&
        !names.memories.has(s.adcOutputMemory))
        out.push_back(makeError(
            "CAMJ-E003", "adcOutputMemory",
            strf("adcOutputMemory references unknown memory '%s'",
                 s.adcOutputMemory.c_str()),
            "registered memories: " + nameList(names.memories)));

    for (size_t i = 0; i < s.mapping.size(); ++i) {
        const auto &[stage, hw] = s.mapping[i];
        if (names.mapping[i].stage == kNone)
            out.push_back(makeError(
                "CAMJ-E003", "mapping[" + std::to_string(i) + "].stage",
                strf("mapping references unknown stage '%s'",
                     stage.c_str()),
                "registered stages: " + nameList(names.stages)));
        if (!names.mapping[i].hw.found())
            out.push_back(makeError(
                "CAMJ-E003", "mapping[" + std::to_string(i) + "].hw",
                strf("mapping of stage '%s' targets unknown hardware "
                     "'%s'",
                     stage.c_str(), hw.c_str()),
                "registered hardware: " +
                    nameList(names.memories, names.arrays, names.units)));
    }
}

// ----------------------------------------------------------- rule E004

void
checkStageArity(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    for (size_t i = 0; i < s.stages.size(); ++i) {
        const StageSpec &st = s.stages[i];
        const int arity = stageOpArity(st.params.op);
        if (static_cast<int>(st.inputs.size()) != arity) {
            out.push_back(makeError(
                "CAMJ-E004",
                elemPath("stages", st.params.name, i) + ".inputs",
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
checkStageGeometry(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    for (size_t i = 0; i < s.stages.size(); ++i) {
        const StageSpec &st = s.stages[i];
        if (st.params.name.empty() || v.probe(i))
            continue; // the duplicate-name rule owns empty names
        // Probe again for the message: only a finding pays for it.
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
checkDagShapes(SpecView &v, std::vector<Diagnostic> &out)
{
    if (!v.stagesUnique())
        return;
    // Only stages whose geometry stands on its own participate.
    const DesignSpec &s = v.spec;
    for (size_t i = 0; i < s.stages.size(); ++i) {
        const StageSpec &st = s.stages[i];
        const Stage *cons = v.probe(i);
        if (!cons)
            continue;
        for (size_t j = 0; j < st.inputs.size(); ++j) {
            const size_t p = v.input(i, j);
            const Stage *prod = p == kNone ? nullptr : v.probe(p);
            if (!prod)
                continue;
            if (!sameShape(prod->outputSize(), cons->inputSize())) {
                out.push_back(makeError(
                    "CAMJ-E006",
                    "stages[" + st.params.name + "].inputSize",
                    strf("shape mismatch on edge '%s' (%s) -> '%s' "
                         "(%s)",
                         st.inputs[j].c_str(),
                         prod->outputSize().str().c_str(),
                         st.params.name.c_str(),
                         cons->inputSize().str().c_str()),
                    "a producer's outputSize must equal its "
                    "consumer's inputSize"));
            }
        }
    }
}

// ----------------------------------------------------------- rule E007

void
checkDagStructure(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
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
        for (size_t j = 0; j < st.inputs.size(); ++j) {
            const std::string &in = st.inputs[j];
            const bool selfLoop = in == st.params.name;
            // An edge repeats when an earlier input names the same
            // stage (an earlier self-loop cannot: this one is not).
            const auto earlier =
                st.inputs.begin() + static_cast<std::ptrdiff_t>(j);
            const bool repeated =
                !selfLoop &&
                std::find(st.inputs.begin(), earlier, in) != earlier;
            if (!selfLoop && !repeated)
                continue;
            out.push_back(makeError(
                "CAMJ-E007",
                elemPath("stages", st.params.name, i) + ".inputs[" +
                    std::to_string(j) + "]",
                selfLoop ? strf("self-loop on stage '%s'",
                                st.params.name.c_str())
                         : strf("duplicate edge '%s' -> '%s'",
                                in.c_str(), st.params.name.c_str())));
        }
    }

    // Cycle detection over the resolvable unique-name graph.
    if (v.stagesUnique() && v.inputsResolve() && !v.topoOrder()) {
        out.push_back(makeError("CAMJ-E007", "stages",
                                "cycle detected in the algorithm "
                                "graph"));
    }
}

// ----------------------------------------------------------- rule E008

void
checkMapping(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    const Names &names = v.names();
    for (size_t i = 0; i < s.mapping.size(); ++i) {
        const auto &[stage, hw] = s.mapping[i];
        if (names.mappedStages.first(stage) != i)
            out.push_back(makeError(
                "CAMJ-E008", "mapping[" + std::to_string(i) + "].stage",
                strf("mapping lists stage '%s' twice",
                     stage.c_str())));
        const MappingRef &ref = names.mapping[i];
        if (ref.stage == kNone)
            continue; // dangling, owned by the reference rule
        const StageOp op = s.stages[ref.stage].params.op;
        if (ref.hw.memory != kNone && op != StageOp::Input) {
            out.push_back(makeError(
                "CAMJ-E008", "mapping[" + std::to_string(i) + "].hw",
                strf("only Input stages may map onto a memory ('%s' "
                     "-> '%s')",
                     stage.c_str(), hw.c_str())));
        }
        const size_t unit = ref.hw.unit;
        if (unit != kNone && s.units[unit].kind == UnitKind::Systolic &&
            op != StageOp::Conv2d && op != StageOp::DepthwiseConv2d &&
            op != StageOp::FullyConnected) {
            out.push_back(makeError(
                "CAMJ-E008", "mapping[" + std::to_string(i) + "].hw",
                strf("systolic array '%s' cannot map %s stage '%s'",
                     hw.c_str(), stageOpName(op), stage.c_str()),
                "systolic arrays execute conv2d, depthwise-conv2d, "
                "and fully-connected stages"));
        }
    }
    for (const StageSpec &st : s.stages) {
        if (!st.params.name.empty() &&
            !names.mappedStages.has(st.params.name)) {
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
    const AnalogWalk &w = v.analogWalk();
    if (w.precedesIndex >= 0) {
        const size_t i = static_cast<size_t>(w.precedesIndex);
        const auto &a = s.analogArrays[i];
        out.push_back(makeError(
            "CAMJ-E008", elemPath("analogArrays", a.name, i),
            strf("analog array '%s' precedes any mapped stage",
                 a.name.c_str()),
            "map the Input stage to the pixel array"));
    }
}

// ----------------------------------------------------------- rule E009

void
checkAnalogPresence(SpecView &v, std::vector<Diagnostic> &out)
{
    if (v.spec.analogArrays.empty())
        out.push_back(makeError(
            "CAMJ-E009", "analogArrays",
            "no analog arrays (a CIS starts with a pixel array)"));
}

// ------------------------------------------- rule E010 / E011 / W003

void
checkAnalogChain(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    if (s.analogArrays.empty())
        return; // E009 owns the empty chain
    for (size_t i = 0; i + 1 < s.analogArrays.size(); ++i) {
        const AnalogArraySpec &prod = s.analogArrays[i];
        const AnalogArraySpec &cons = s.analogArrays[i + 1];
        SignalDomain outd = componentOutputDomain(prod.component);
        SignalDomain ind = componentInputDomain(cons.component);
        if (outd != ind) {
            out.push_back(makeError(
                "CAMJ-E010",
                elemPath("analogArrays", cons.name, i + 1) + ".component",
                strf("'%s' outputs %s but '%s' consumes %s",
                     prod.name.c_str(), signalDomainName(outd),
                     cons.name.c_str(), signalDomainName(ind)),
                strf("insert a %s-to-%s conversion component",
                     signalDomainName(outd), signalDomainName(ind))));
        }
        int64_t produced = prod.outputShape.count();
        int64_t consumed = cons.inputShape.count();
        if (produced == consumed)
            continue;
        const std::string path =
            elemPath("analogArrays", cons.name, i + 1) + ".inputShape";
        if (ind == SignalDomain::Voltage) {
            out.push_back(makeWarning(
                "CAMJ-W003", path,
                strf("throughput mismatch %s ('%s') -> %s ('%s') "
                     "buffered by the consumer's inherent "
                     "capacitance",
                     prod.outputShape.str().c_str(), prod.name.c_str(),
                     cons.inputShape.str().c_str(),
                     cons.name.c_str())));
        } else {
            out.push_back(makeError(
                "CAMJ-E011", path,
                strf("'%s' produces %s per step but '%s' "
                     "consumes %s",
                     prod.name.c_str(), prod.outputShape.str().c_str(),
                     cons.name.c_str(),
                     cons.inputShape.str().c_str()),
                "insert an analog buffer (e.g. a sample-hold "
                "array) between them"));
        }
    }
    const AnalogArraySpec &last = s.analogArrays.back();
    SignalDomain outd = componentOutputDomain(last.component);
    if (outd != SignalDomain::Digital) {
        out.push_back(makeError(
            "CAMJ-E010",
            elemPath("analogArrays", last.name,
                     s.analogArrays.size() - 1) +
                ".component",
            strf("final array '%s' outputs %s; an ADC (or comparator) "
                 "must sit between the analog and digital domains",
                 last.name.c_str(), signalDomainName(outd))));
    }
}

// ----------------------------------------------------------- rule E012

void
checkDigitalWiring(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    const Names &names = v.names();

    if (!s.units.empty() && s.adcOutputMemory.empty())
        out.push_back(makeError(
            "CAMJ-E012", "adcOutputMemory",
            "digital units exist but no adcOutputMemory is "
            "configured",
            "name the memory the ADC writes into"));

    // Units (by first unit of a name) that a mapping entry of a
    // registered stage targets.
    std::vector<char> mapped(s.units.size(), 0);
    for (const MappingRef &ref : names.mapping) {
        if (ref.hw.unit != kNone && ref.stage != kNone)
            mapped[ref.hw.unit] = 1;
    }

    for (size_t i = 0; i < s.units.size(); ++i) {
        const UnitSpec &u = s.units[i];
        if (!mapped[names.units.first(u.name())])
            continue; // dead unit, owned by the dead-component rule
        if (u.inputMemories.empty()) {
            out.push_back(makeError(
                "CAMJ-E012",
                elemPath("units", u.name(), i) + ".inputMemories",
                strf("unit '%s' has no input memory",
                     u.name().c_str())));
        } else if (u.kind == UnitKind::Systolic &&
                   u.inputMemories.size() != 1) {
            out.push_back(makeError(
                "CAMJ-E012",
                elemPath("units", u.name(), i) + ".inputMemories",
                strf("systolic array '%s' needs exactly one input "
                     "buffer (has %zu)",
                     u.name().c_str(), u.inputMemories.size())));
        }
    }
}

// ----------------------------------------------------------- rule E013

void
checkMemoryRanges(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    for (size_t i = 0; i < s.memories.size(); ++i) {
        const MemorySpec &m = s.memories[i];
        auto at = [&](const char *field) {
            return elemPath("memories", m.name, i) + field;
        };
        if (m.capacityWords <= 0)
            out.push_back(makeError(
                "CAMJ-E013", at(".capacityWords"),
                strf("capacity must be positive (got %lld words)",
                     static_cast<long long>(m.capacityWords))));
        const int wordMax =
            m.model == MemoryModel::Regfile ? 256 : 1024;
        if (m.wordBits < 1 || m.wordBits > wordMax)
            out.push_back(makeError(
                "CAMJ-E013", at(".wordBits"),
                strf("word width %d outside [1, %d]", m.wordBits,
                     wordMax)));
        if (m.activeFraction < 0.0 || m.activeFraction > 1.0)
            out.push_back(makeError(
                "CAMJ-E013", at(".activeFraction"),
                strf("active fraction %g outside [0, 1]",
                     m.activeFraction)));

        if ((m.model == MemoryModel::Sram ||
             m.model == MemoryModel::Sttram) &&
            (m.nodeNm < 7 || m.nodeNm > 250))
            out.push_back(makeError(
                "CAMJ-E013", at(".nodeNm"),
                strf("process node %d nm outside supported range "
                     "[7, 250]",
                     m.nodeNm)));

        if (m.capacityWords > 0 && m.wordBits >= 1) {
            const int64_t bytes = m.capacityWords * m.wordBits / 8;
            if (m.model != MemoryModel::Explicit && bytes <= 0)
                out.push_back(makeError(
                    "CAMJ-E013", at(".capacityWords"),
                    strf("capacity %lld words x %d b rounds to zero "
                         "bytes",
                         static_cast<long long>(m.capacityWords),
                         m.wordBits)));
            if (m.model == MemoryModel::Sttram && bytes < 4096)
                out.push_back(makeError(
                    "CAMJ-E013", at(".capacityWords"),
                    strf("%lld B below the 4 KB minimum of the "
                         "STT-RAM model",
                         static_cast<long long>(bytes))));
            if (m.model == MemoryModel::Regfile && bytes > 4096)
                out.push_back(makeError(
                    "CAMJ-E013", at(".capacityWords"),
                    strf("capacity %lld B outside (0, 4096] of the "
                         "register-file model",
                         static_cast<long long>(bytes))));
        }

        if (m.model == MemoryModel::Explicit) {
            if (m.readEnergyPerWord < 0.0 ||
                m.writeEnergyPerWord < 0.0 || m.leakagePower < 0.0)
                out.push_back(makeError("CAMJ-E013", at(""),
                                        "negative energy/power"));
            if (m.readPorts < 1 || m.writePorts < 1)
                out.push_back(makeError("CAMJ-E013", at(".readPorts"),
                                        "ports must be >= 1"));
        }
    }
}

// ----------------------------------------------------------- rule E014

void
checkComponentParams(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    for (size_t i = 0; i < s.analogArrays.size(); ++i) {
        const AnalogArraySpec &a = s.analogArrays[i];
        auto at = [&](const std::string &field) {
            return elemPath("analogArrays", a.name, i) + field;
        };
        if (!positiveShape(a.numComponents))
            out.push_back(makeError(
                "CAMJ-E014", at(".numComponents"),
                strf("invalid component count %s",
                     a.numComponents.str().c_str())));
        if (!positiveShape(a.inputShape) ||
            !positiveShape(a.outputShape))
            out.push_back(makeError("CAMJ-E014", at(".inputShape"),
                                    "invalid input/output shape"));
        if (a.componentArea < 0.0)
            out.push_back(makeError("CAMJ-E014", at(".componentArea"),
                                    "negative component area"));

        const ComponentSpec &c = a.component;
        switch (c.kind) {
          case ComponentKind::Aps4T:
          case ComponentKind::Aps3T:
          case ComponentKind::PwmPixel:
          case ComponentKind::DvsPixel:
          case ComponentKind::Dps:
            if (c.aps.pixelsPerComponent < 1)
                out.push_back(makeError(
                    "CAMJ-E014", at(".component.aps.pixelsPerComponent"),
                    strf("pixelsPerComponent must be >= 1 (got %d)",
                         c.aps.pixelsPerComponent)));
            if (c.kind != ComponentKind::Dps)
                break;
            [[fallthrough]];
          case ComponentKind::ColumnAdc:
            if (c.adc.bits < 1 || c.adc.bits > 16)
                out.push_back(makeError(
                    "CAMJ-E014", at(".component.adc.bits"),
                    strf("ADC resolution %d outside [1, 16]",
                         c.adc.bits)));
            break;
          case ComponentKind::SwitchedCapMac:
            if (c.sc.numCaps < 1)
                out.push_back(makeError(
                    "CAMJ-E014", at(".component.switchedCap.numCaps"),
                    strf("numCaps must be >= 1 (got %d)",
                         c.sc.numCaps)));
            break;
          case ComponentKind::MaxUnit:
            if (c.maxInputs < 2)
                out.push_back(makeError(
                    "CAMJ-E014", at(".component.maxInputs"),
                    strf("need at least 2 inputs (got %d)",
                         c.maxInputs)));
            break;
          case ComponentKind::Custom: {
            if (c.custom.name.empty())
                out.push_back(makeError("CAMJ-E014",
                                        at(".component.custom.name"),
                                        "empty component name"));
            if (c.custom.cells.empty())
                out.push_back(makeError("CAMJ-E014",
                                        at(".component.custom.cells"),
                                        "component has no cells"));
            for (size_t j = 0; j < c.custom.cells.size(); ++j) {
                const CellSpec &cell = c.custom.cells[j];
                auto cellAt = [&](const char *field) {
                    return at(".component.custom.cells[" +
                              std::to_string(j) + "]" + field);
                };
                if (cell.spatial < 1 || cell.temporal < 1)
                    out.push_back(makeError(
                        "CAMJ-E014", cellAt(""),
                        strf("cell counts must be >= 1 (got %d, %d)",
                             cell.spatial, cell.temporal)));
                switch (cell.cls) {
                  case CellClass::Dynamic:
                    if (cell.caps.empty()) {
                        out.push_back(
                            makeError("CAMJ-E014", cellAt(".caps"),
                                      "no capacitance nodes"));
                    }
                    for (const CapNode &n : cell.caps) {
                        if (n.capacitance <= 0.0)
                            out.push_back(makeError(
                                "CAMJ-E014", cellAt(".caps"),
                                strf("non-positive capacitance %g F",
                                     n.capacitance)));
                        if (n.voltageSwing < 0.0)
                            out.push_back(makeError(
                                "CAMJ-E014", cellAt(".caps"),
                                strf("negative voltage swing %g V",
                                     n.voltageSwing)));
                    }
                    break;
                  case CellClass::StaticBias:
                    if (cell.bias.loadCapacitance <= 0.0)
                        out.push_back(makeError(
                            "CAMJ-E014", cellAt(".bias.loadCapacitance"),
                            "non-positive load capacitance"));
                    break;
                  case CellClass::NonLinear:
                    if (cell.bits < 1 || cell.bits > 16)
                        out.push_back(makeError(
                            "CAMJ-E014", cellAt(".bits"),
                            strf("resolution %d outside [1, 16]",
                                 cell.bits)));
                    if (cell.energyOverride < 0.0)
                        out.push_back(
                            makeError("CAMJ-E014",
                                      cellAt(".energyOverride"),
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
checkAdcThroughput(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    if (s.fps <= 0.0)
        return; // E001 owns that
    const AnalogWalk &w = v.analogWalk();
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
        if (rateLb > 1e12) {
            out.push_back(makeError(
                "CAMJ-E015",
                elemPath("analogArrays", a.name, i) + ".component",
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
                "CAMJ-W004",
                elemPath("analogArrays", a.name, i) + ".component",
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
checkCommBoundary(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    const std::vector<size_t> *order = v.topoOrder();
    const std::vector<size_t> *entry = v.completeMapping();
    if (!order || !entry || s.stages.empty())
        return;
    const Names &names = v.names();

    // The topologically-last processing stage (resident-data Inputs
    // are not outputs even when they sort last).
    size_t lastStage = order->back();
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
        if (s.stages[*it].params.op != StageOp::Input) {
            lastStage = *it;
            break;
        }
    }
    const Stage *lastProbe = v.probe(lastStage);
    if (!lastProbe)
        return;
    const int64_t outBytes = s.pipelineOutputBytes >= 0
                                 ? s.pipelineOutputBytes
                                 : lastProbe->outputBytesPerFrame();
    const std::optional<Layer> outLayer =
        v.hwLayer(names.mapping[(*entry)[lastStage]].hw);
    if (!outLayer)
        return;

    bool mipiNeeded = *outLayer != Layer::OffChip && outBytes > 0;
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

    // Stages and operations mapped onto each unit name (counted at
    // the first unit of the name).
    std::vector<int> mappedCount(s.units.size(), 0);
    std::vector<int64_t> mappedOps(s.units.size(), 0);
    for (size_t st = 0; st < s.stages.size(); ++st) {
        const size_t u = names.mapping[(*entry)[st]].hw.unit;
        if (u == kNone)
            continue;
        ++mappedCount[u];
        if (const Stage *probe = v.probe(st))
            mappedOps[u] += probe->opsPerFrame();
    }

    for (const UnitSpec &u : s.units) {
        const size_t first = names.units.first(u.name());
        if (mappedCount[first] == 0)
            continue; // no traffic: the engine skips it entirely
        const Layer ul = *v.hwLayer(names.hw(u.name()));
        for (const std::string &mem : u.inputMemories) {
            const size_t m = names.memories.first(mem);
            if (m == kNone)
                continue;
            bool nonZero = true;
            if (u.kind == UnitKind::Systolic &&
                u.systolic.rows >= 1 && u.systolic.cols >= 1) {
                const int64_t macs = mappedOps[first];
                nonZero = macs / u.systolic.rows +
                              macs / u.systolic.cols >
                          0;
            }
            cross(s.memories[m].layer, ul, nonZero);
        }
        for (const std::string &mem : u.outputMemories) {
            const size_t m = names.memories.first(mem);
            if (m != kNone)
                cross(ul, s.memories[m].layer, true);
        }
    }

    const AnalogWalk &w = v.analogWalk();
    if (!s.adcOutputMemory.empty() && w.ok && w.volume > 0 &&
        !s.analogArrays.empty()) {
        const size_t m = names.memories.first(s.adcOutputMemory);
        if (m != kNone)
            cross(s.analogArrays.back().layer, s.memories[m].layer,
                  true);
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

    if (s.mipi.present && outBytes == 0) {
        // Any hardware name whose first element sits off chip.
        bool anyOffChip = false;
        auto offChip = [&](const std::string &name) {
            return v.hwLayer(names.hw(name)) == Layer::OffChip;
        };
        for (const AnalogArraySpec &a : s.analogArrays)
            anyOffChip |= offChip(a.name);
        for (const MemorySpec &m : s.memories)
            anyOffChip |= offChip(m.name);
        for (const UnitSpec &u : s.units)
            anyOffChip |= offChip(u.name());
        if (!anyOffChip)
            out.push_back(makeInfo(
                "CAMJ-I002", "mipi",
                "MIPI interface configured but no data crosses the "
                "package boundary"));
    }
    if (s.tsv.present && tsvProvablyUnused)
        out.push_back(makeInfo(
            "CAMJ-I002", "tsv",
            "uTSV interface configured but no data crosses between "
            "stacked layers"));
}

// ----------------------------------------------------------- rule E017

void
checkUnitParams(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    for (size_t i = 0; i < s.units.size(); ++i) {
        const UnitSpec &u = s.units[i];
        auto at = [&](const char *field) {
            return elemPath("units", u.name(), i) + field;
        };
        if (u.kind == UnitKind::Pipeline) {
            const auto &p = u.pipeline;
            if (!positiveShape(p.inputPixelsPerCycle) ||
                !positiveShape(p.outputPixelsPerCycle))
                out.push_back(makeError("CAMJ-E017",
                                        at(".inputPixelsPerCycle"),
                                        "invalid per-cycle shapes"));
            if (p.energyPerCycle < 0.0)
                out.push_back(makeError("CAMJ-E017",
                                        at(".energyPerCycle"),
                                        "negative energy per cycle"));
            if (p.numStages < 1)
                out.push_back(makeError(
                    "CAMJ-E017", at(".numStages"),
                    strf("pipeline depth must be >= 1 (got %d)",
                         p.numStages)));
            if (p.clock <= 0.0)
                out.push_back(makeError("CAMJ-E017", at(".clock"),
                                        "non-positive clock"));
            if (p.opsPerCycle < 0.0)
                out.push_back(makeError("CAMJ-E017", at(".opsPerCycle"),
                                        "negative ops per cycle"));
        } else {
            const auto &p = u.systolic;
            if (p.rows < 1 || p.cols < 1)
                out.push_back(makeError(
                    "CAMJ-E017", at(".rows"),
                    strf("dimensions must be >= 1 (got %dx%d)",
                         p.rows, p.cols)));
            if (p.energyPerMac < 0.0)
                out.push_back(makeError("CAMJ-E017", at(".energyPerMac"),
                                        "negative per-MAC energy"));
            if (p.clock <= 0.0)
                out.push_back(makeError("CAMJ-E017", at(".clock"),
                                        "non-positive clock"));
        }
    }
}

// ----------------------------------------------------------- rule W001

void
checkDeadComponents(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    const Names &names = v.names();
    // Memories (by first memory of a name) a unit, the ADC or a
    // mapping entry names, and units a mapping entry names.
    std::vector<char> memUsed(s.memories.size(), 0);
    std::vector<char> unitUsed(s.units.size(), 0);
    auto useMem = [&](const std::string &name) {
        if (const size_t m = names.memories.first(name); m != kNone)
            memUsed[m] = 1;
    };
    for (const UnitSpec &u : s.units) {
        for (const std::string &m : u.inputMemories)
            useMem(m);
        for (const std::string &m : u.outputMemories)
            useMem(m);
    }
    if (!s.adcOutputMemory.empty())
        useMem(s.adcOutputMemory);
    for (const MappingRef &ref : names.mapping) {
        if (ref.hw.memory != kNone)
            memUsed[ref.hw.memory] = 1;
        if (ref.hw.unit != kNone)
            unitUsed[ref.hw.unit] = 1;
    }

    for (size_t i = 0; i < s.memories.size(); ++i) {
        const MemorySpec &m = s.memories[i];
        if (!memUsed[names.memories.first(m.name)])
            out.push_back(makeWarning(
                "CAMJ-W001", elemPath("memories", m.name, i),
                strf("memory '%s' is not referenced by any unit, "
                     "mapping, or adcOutputMemory",
                     m.name.c_str()),
                "remove it or wire it up"));
    }
    for (size_t i = 0; i < s.units.size(); ++i) {
        const UnitSpec &u = s.units[i];
        if (!unitUsed[names.units.first(u.name())])
            out.push_back(makeWarning(
                "CAMJ-W001", elemPath("units", u.name(), i),
                strf("compute unit '%s' has no mapped stages",
                     u.name().c_str()),
                "map a stage onto it or remove it"));
    }
}

// ----------------------------------------------------------- rule W002

void
checkMagnitudes(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
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
        if (u.kind == UnitKind::Systolic &&
            u.systolic.energyPerMac > 1e-9)
            out.push_back(makeWarning(
                "CAMJ-W002",
                elemPath("units", u.name(), i) + ".energyPerMac",
                strf("%g J per MAC is unusually large (typical: "
                     "0.1-10 pJ)",
                     u.systolic.energyPerMac)));
        if (u.kind == UnitKind::Pipeline &&
            u.pipeline.energyPerCycle > 1e-6)
            out.push_back(makeWarning(
                "CAMJ-W002",
                elemPath("units", u.name(), i) + ".energyPerCycle",
                strf("%g J per cycle is unusually large",
                     u.pipeline.energyPerCycle)));
    }
    for (size_t i = 0; i < s.memories.size(); ++i) {
        const MemorySpec &m = s.memories[i];
        if (m.capacityWords > 0 && m.wordBits > 0 &&
            m.capacityWords * m.wordBits > (int64_t{1} << 33))
            out.push_back(makeWarning(
                "CAMJ-W002",
                elemPath("memories", m.name, i) + ".capacityWords",
                strf("memory '%s' holds more than 1 GB — unusual for "
                     "an in-sensor buffer",
                     m.name.c_str())));
    }
    for (size_t i = 0; i < s.analogArrays.size(); ++i) {
        const AnalogArraySpec &a = s.analogArrays[i];
        if (a.componentArea > 1e-4)
            out.push_back(makeWarning(
                "CAMJ-W002",
                elemPath("analogArrays", a.name, i) + ".componentArea",
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
checkResidentInputs(SpecView &v, std::vector<Diagnostic> &out)
{
    const DesignSpec &s = v.spec;
    const Names &names = v.names();
    for (size_t i = 0; i < s.mapping.size(); ++i) {
        const auto &[stage, hw] = s.mapping[i];
        const size_t st = names.mapping[i].stage;
        const size_t m = names.mapping[i].hw.memory;
        if (st == kNone || m == kNone)
            continue;
        if (s.stages[st].params.op != StageOp::Input)
            continue;
        out.push_back(makeInfo(
            "CAMJ-I001", "mapping[" + std::to_string(i) + "].hw",
            strf("Input stage '%s' resides in memory '%s' (prefilled "
                 "frame: reads always succeed)",
                 stage.c_str(), hw.c_str())));
        const Stage *probe = v.probe(st);
        if (!probe)
            continue;
        const MemorySpec &mem = s.memories[m];
        const int64_t frameBits = probe->outputsPerFrame() *
                                  probe->bitDepth();
        const int64_t memBits = mem.capacityWords * mem.wordBits;
        if (memBits > 0 && frameBits > memBits)
            out.push_back(makeWarning(
                "CAMJ-W007",
                "memories[" + mem.name + "].capacityWords",
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
editDistance(std::string_view a, std::string_view b)
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

using spec::KeyPath;

/** An obsolete spelling the reader ignores in the objects of one
 *  table: old -> current. */
struct Renamed
{
    const spec::FieldTable *table;
    std::string_view from;
    std::string_view to;
};

constexpr Renamed kRenamed[] = {
    {&spec::kSpecTable, "frame_rate", "fps"},
    {&spec::kSpecTable, "frameRate", "fps"},
    {&spec::kSpecTable, "clock", "digitalClock"},
    {&spec::kSpecTable, "sw_stages", "stages"},
    {&spec::kSpecTable, "mappings", "mapping"},
    {&spec::kStageTable, "opsPerOutputOverride", "opsPerOutput"},
    {&spec::kStageTable, "bit_depth", "bitDepth"},
    {&spec::kMemoryTable, "node_nm", "nodeNm"},
    {&spec::kMemoryTable, "capacity", "capacityWords"},
    {&spec::kComponentTable, "comparatorEnergyOverride", "energyOverride"},
};

// The blocks a document carries besides the spec: their readers are
// not spec objects, so their keys are listed here.
constexpr std::string_view kTopBlocks[] = {"sweepGrid", "shard"};
constexpr std::string_view kGridKeys[] = {"axes", "points"};
constexpr std::string_view kAxisKeys[] = {"name", "path", "values"};
constexpr std::string_view kShardKeys[] = {
    "mode", "index", "count", "total", "begin", "end", "indices",
    "sweepGrid"};

const Value *
member(const Value &obj, std::string_view key)
{
    return obj.isObject() ? obj.find(key) : nullptr;
}

/**
 * W006 or W005 for each key of the object @p obj the known keys do
 * not list. @p known(fn) calls fn on each known key, in the order a
 * did-you-mean hint prefers them (the first closest wins), until fn
 * returns true; @p table selects the renames that apply.
 */
template <class Known>
void
checkKeys(const Value &obj, Known &&known, const spec::FieldTable *table,
          const KeyPath *path, std::vector<Diagnostic> &out)
{
    for (const auto &[key, value] : obj.asObject()) {
        (void)value;
        const std::string_view k = key;
        bool isKnown = false;
        known([&](std::string_view candidate) {
            return isKnown = candidate == k;
        });
        if (isKnown)
            continue;
        std::string at;
        spec::appendPath(at, path);
        if (!at.empty())
            at += '.';
        at += key;
        const Renamed *renamed = std::find_if(
            std::begin(kRenamed), std::end(kRenamed), [&](const Renamed &r) {
                return r.table == table && r.from == k;
            });
        if (renamed != std::end(kRenamed)) {
            out.push_back(makeWarning(
                "CAMJ-W006", std::move(at),
                strf("key '%s' is an obsolete spelling and is "
                     "ignored by the parser",
                     key.c_str()),
                "use '" + std::string(renamed->to) + "'"));
            continue;
        }
        std::string hint;
        int bestDist = 3; // suggest only close misses
        known([&](std::string_view candidate) {
            const int d = editDistance(k, candidate);
            if (d < bestDist) {
                bestDist = d;
                hint = "did you mean '" + std::string(candidate) + "'?";
            }
            return false;
        });
        out.push_back(makeWarning(
            "CAMJ-W005", std::move(at),
            strf("unknown key '%s' is ignored by the parser",
                 key.c_str()),
            std::move(hint)));
    }
}

/** checkKeys over a plain key list. */
void
checkKeyList(const Value &obj, std::span<const std::string_view> keys,
             const KeyPath *path, std::vector<Diagnostic> &out)
{
    if (!obj.isObject())
        return;
    checkKeys(
        obj,
        [&](auto fn) { std::find_if(keys.begin(), keys.end(), fn); },
        nullptr, path, out);
}

/** Call @p fn(element, path) for each element of the array member
 *  @p name of @p obj. */
template <class Fn>
void
forEachElement(const Value &obj, std::string_view name,
               const KeyPath *parent, Fn &&fn)
{
    const Value *arr = member(obj, name);
    if (!arr || !arr->isArray())
        return;
    const auto &elems = arr->asArray();
    for (size_t i = 0; i < elems.size(); ++i) {
        const KeyPath path{parent, name, &elems[i], i};
        fn(elems[i], &path);
    }
}

void lintObject(const Value &obj, const spec::FieldTable &t,
                const KeyPath *path, std::vector<Diagnostic> &out);

/** Lint the nested objects @p fields declare in @p obj. */
void
lintNested(const Value &obj, std::span<const spec::Field> fields,
           const KeyPath *path, std::vector<Diagnostic> &out)
{
    for (const spec::Field &f : fields) {
        if (f.kind == spec::FieldKind::Object) {
            if (const Value *m = member(obj, f.key)) {
                const KeyPath mp{path, f.key};
                lintObject(*m, *f.nested, &mp, out);
            }
        } else if (f.kind == spec::FieldKind::ObjectList) {
            forEachElement(obj, f.key, path,
                           [&](const Value &e, const KeyPath *ep) {
                               lintObject(e, *f.nested, ep, out);
                           });
        }
    }
}

/** The keys of @p obj against table @p t (and the variant its enum
 *  token picks; the first for a missing or unknown token), then its
 *  nested objects. */
void
lintObject(const Value &obj, const spec::FieldTable &t, const KeyPath *path,
           std::vector<Diagnostic> &out)
{
    if (!obj.isObject())
        return;
    std::span<const spec::Field> variant;
    if (!t.variants.empty()) {
        const spec::Field &kind = t.fields[0];
        const Value *token = obj.find(kind.key);
        size_t picked = 0;
        for (int v = 0; v < kind.tokens->count; ++v) {
            if (token != nullptr && token->isString() &&
                token->asString() == kind.tokens->name(v))
                picked = static_cast<size_t>(v);
        }
        variant = t.variants[picked]->fields;
    }
    checkKeys(
        obj,
        [&](auto fn) {
            for (const spec::Field &f : t.fields) {
                if (fn(f.key))
                    return;
            }
            for (const spec::Field &f : variant) {
                if (fn(f.key))
                    return;
            }
        },
        &t, path, out);
    lintNested(obj, t.fields, path, out);
    lintNested(obj, variant, path, out);
}

} // namespace

std::vector<Diagnostic>
lintDocumentKeys(const Value &doc)
{
    std::vector<Diagnostic> out;
    if (!doc.isObject())
        return out;
    checkKeys(
        doc,
        [](auto fn) {
            if (fn(spec::kSpecVersionKey))
                return;
            for (const spec::Field &f : spec::kSpecFields) {
                if (fn(f.key))
                    return;
            }
            std::find_if(std::begin(kTopBlocks), std::end(kTopBlocks), fn);
        },
        &spec::kSpecTable, nullptr, out);
    lintNested(doc, spec::kSpecFields, nullptr, out);
    if (const Value *grid = member(doc, "sweepGrid")) {
        const KeyPath gp{nullptr, "sweepGrid"};
        checkKeyList(*grid, kGridKeys, &gp, out);
        forEachElement(*grid, "axes", &gp,
                       [&](const Value &axis, const KeyPath *p) {
                           checkKeyList(axis, kAxisKeys, p, out);
                       });
    }
    if (const Value *shard = member(doc, "shard")) {
        const KeyPath sp{nullptr, "shard"};
        checkKeyList(*shard, kShardKeys, &sp, out);
    }
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

namespace
{

/** The rule catalogue (docs/lint_rules.md), in run order. */
constexpr AnalysisRule kCatalogue[] = {
    {"top-level-params", "CAMJ-E001", checkTopLevel},
    {"duplicate-names", "CAMJ-E002", checkDuplicateNames},
    {"dangling-references", "CAMJ-E003", checkDanglingRefs},
    {"stage-arity", "CAMJ-E004", checkStageArity},
    {"stage-geometry", "CAMJ-E005", checkStageGeometry},
    {"dag-edge-shapes", "CAMJ-E006", checkDagShapes},
    {"dag-structure", "CAMJ-E007", checkDagStructure},
    {"mapping", "CAMJ-E008", checkMapping},
    {"analog-presence", "CAMJ-E009", checkAnalogPresence},
    {"analog-chain", "CAMJ-E010", checkAnalogChain},
    {"digital-wiring", "CAMJ-E012", checkDigitalWiring},
    {"memory-ranges", "CAMJ-E013", checkMemoryRanges},
    {"component-params", "CAMJ-E014", checkComponentParams},
    {"adc-throughput", "CAMJ-E015", checkAdcThroughput},
    {"comm-boundary", "CAMJ-E016", checkCommBoundary},
    {"unit-params", "CAMJ-E017", checkUnitParams},
    {"dead-components", "CAMJ-W001", checkDeadComponents},
    {"suspicious-magnitudes", "CAMJ-W002", checkMagnitudes},
    {"resident-inputs", "CAMJ-I001", checkResidentInputs},
};

void
runCatalogue(const DesignSpec &spec, std::vector<Diagnostic> &out)
{
    SpecView view(spec);
    for (const AnalysisRule &r : kCatalogue)
        r.check(view, out);
}

} // namespace

std::span<const AnalysisRule>
SpecAnalyzer::rules()
{
    return kCatalogue;
}

void
SpecAnalyzer::runRule(const AnalysisRule &rule, const DesignSpec &spec,
                      std::vector<Diagnostic> &out)
{
    SpecView view(spec);
    rule.check(view, out);
}

std::vector<Diagnostic>
SpecAnalyzer::analyze(const DesignSpec &spec) const
{
    std::vector<Diagnostic> out;
    runCatalogue(spec, out);
    return out;
}

std::vector<Diagnostic>
SpecAnalyzer::analyzeDocument(const Value &doc) const
{
    std::vector<Diagnostic> out;
    analyzeDocument(doc, out);
    return out;
}

std::optional<DesignSpec>
SpecAnalyzer::analyzeDocument(const Value &doc,
                              std::vector<Diagnostic> &out) const
{
    out = lintDocumentKeys(doc);
    std::optional<DesignSpec> lowered;
    try {
        lowered.emplace(spec::fromJsonValue(doc));
    } catch (const ConfigError &e) {
        out.push_back(makeError(e.code(), "", e.what()));
        return std::nullopt;
    }
    runCatalogue(*lowered, out);
    return lowered;
}

} // namespace camj::analysis

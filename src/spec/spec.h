/**
 * @file
 * DesignSpec: a fully serializable, value-type description of one
 * computational-CIS design point — the three decoupled descriptions
 * of Sec. 3.3 (algorithm DAG, hardware, mapping) as plain data.
 *
 * Where a Design is the engine's object, wired by index and ready to
 * simulate, a DesignSpec is a document: it can be loaded from and
 * saved to JSON (camj::spec::fromJson / toJson), diffed, swept, and
 * shipped between processes. materialize() lowers a spec onto the
 * Design engine, and is the only way a Design gets built.
 *
 * Analog components are described by *kind* plus the corresponding
 * factory parameter struct (the Table 1 component library), so a spec
 * stays declarative without serializing cell-level netlists. Designs
 * outside the library (the paper's chip reconstructions use
 * current-domain MACs, winner-take-all pools, in-pixel multipliers)
 * use ComponentKind::Custom, which serializes the Sec. 4.2 cell chain
 * itself: an ordered list of dynamic / static-biased / non-linear
 * cells with their electrical parameters.
 */

#ifndef CAMJ_SPEC_SPEC_H
#define CAMJ_SPEC_SPEC_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/design.h"
#include "spec/json.h"

namespace camj::spec
{

// ------------------------------------------------------------ algorithm

/** One algorithm stage plus its producer edges (operand order). */
struct StageSpec
{
    StageParams params;
    /** Names of producer stages, in operand order. */
    std::vector<std::string> inputs;

    bool operator==(const StageSpec &) const = default;
};

// ----------------------------------------------------- analog hardware

/** Component kinds of the Table 1 analog library. */
enum class ComponentKind
{
    Aps4T,
    Aps3T,
    Dps,
    PwmPixel,
    DvsPixel,
    ColumnAdc,
    SwitchedCapMac,
    ChargeAdder,
    Scaler,
    AbsUnit,
    MaxUnit,
    Comparator,
    LogUnit,
    PassiveAnalogMemory,
    ActiveAnalogMemory,
    ChargeToVoltage,
    CurrentToVoltage,
    TimeToVoltage,
    SampleHold,
    /** An explicit Sec. 4.2 cell chain (see CustomComponentSpec). */
    Custom,
};

/** Kind <-> stable JSON token ("aps4t", "column-adc", ...). */
const char *componentKindName(ComponentKind kind);
ComponentKind componentKindFromName(const std::string &name);

// ---------------------------------------------- custom cell chains

/** The three A-Cell energy classes of Sec. 4.2. */
enum class CellClass
{
    /** Eq. 5 charge/discharge energy (DynamicCell). */
    Dynamic,
    /** Eq. 7-10 bias-current energy (StaticBiasedCell). */
    StaticBias,
    /** Eq. 12 Walden-FoM energy (NonLinearCell). */
    NonLinear,
};

const char *cellClassName(CellClass cls);

const char *timingScopeName(TimingScope scope);

const char *biasModeName(BiasMode mode);


/** One cell on a custom component's critical path. */
struct CellSpec
{
    CellClass cls = CellClass::Dynamic;
    std::string name;
    /** Capacitance nodes (Dynamic). */
    std::vector<CapNode> caps;
    /** Bias parameters (StaticBias). */
    StaticBiasParams bias;
    /** Resolution (NonLinear); a comparator is 1 bit. */
    int bits = 1;
    /** Per-conversion energy override (NonLinear); 0 = FoM survey. */
    Energy energyOverride = 0.0;
    /** Spatial replication inside the component. */
    int spatial = 1;
    /** Temporal uses per component operation. */
    int temporal = 1;
    TimingScope scope = TimingScope::SelfSlot;

    /** Build the A-Cell. @throws ConfigError. */
    std::shared_ptr<const ACell> instantiate() const;

    bool operator==(const CellSpec &) const = default;
};

/**
 * A component outside the Table 1 library, declared as the ordered
 * cell chain the signal flows through — the serializable equivalent
 * of assembling an AComponent by hand.
 */
struct CustomComponentSpec
{
    std::string name;
    SignalDomain input = SignalDomain::Voltage;
    SignalDomain output = SignalDomain::Voltage;
    std::vector<CellSpec> cells;

    bool operator==(const CustomComponentSpec &) const = default;
};

/**
 * A declarative analog component: a library kind plus the parameter
 * struct that kind's factory consumes. Only the parameters relevant
 * to the kind are serialized.
 */
struct ComponentSpec
{
    ComponentKind kind = ComponentKind::Aps4T;
    /** Pixel kinds (Aps4T/Aps3T/Dps/PwmPixel/DvsPixel). */
    ApsParams aps;
    /** ColumnAdc and the Dps in-pixel converter. */
    AdcParams adc;
    /** Switched-capacitor compute kinds. */
    SwitchedCapParams sc;
    /** Analog memory kinds. */
    AnalogMemoryParams analogMem;
    /** Domain converters and sample-hold. */
    ConverterParams conv;
    /** MaxUnit fan-in. */
    int maxInputs = 2;
    /** Comparator per-decision energy override (0 = FoM survey). */
    Energy comparatorEnergyOverride = 0.0;
    /** LogUnit load capacitance [F]. */
    Capacitance logLoadCap = 50e-15;
    /** LogUnit analog supply [V]. */
    Voltage logVdda = 2.5;
    /** Explicit cell chain (kind == Custom). */
    CustomComponentSpec custom;

    /** Instantiate the library component. @throws ConfigError. */
    AComponent instantiate() const;

    bool operator==(const ComponentSpec &) const = default;
};

/** One analog array of the chain (insertion order = pipeline order). */
struct AnalogArraySpec
{
    std::string name;
    Layer layer = Layer::Sensor;
    AnalogRole role = AnalogRole::Sensing;
    Shape numComponents = {1, 1, 1};
    Shape inputShape = {1, 1, 1};
    Shape outputShape = {1, 1, 1};
    Area componentArea = 0.0;
    ComponentSpec component;

    bool operator==(const AnalogArraySpec &) const = default;
};

// ---------------------------------------------------- digital hardware

/** Where a digital memory's electrical numbers come from. */
enum class MemoryModel
{
    /** All electrical parameters spelled out in the spec. */
    Explicit,
    /** Derived from the analytical SRAM model at `node_nm`. */
    Sram,
    /** Derived from the analytical STT-RAM model at `node_nm`. */
    Sttram,
    /** Derived from the flip-flop register-file model at `node_nm`
     *  (PE-local scratch storage; capacity limited to 4 KB). */
    Regfile,
};

const char *memoryModelName(MemoryModel model);

/** One digital memory. */
struct MemorySpec
{
    std::string name;
    Layer layer = Layer::Sensor;
    MemoryKind kind = MemoryKind::Fifo;
    MemoryModel model = MemoryModel::Sram;
    int64_t capacityWords = 0;
    int wordBits = 8;
    /** Process node for the Sram/Sttram models [nm]. */
    int nodeNm = 65;
    double activeFraction = 1.0;
    // Explicit-model electricals (ignored by Sram/Sttram).
    Energy readEnergyPerWord = 0.0;
    Energy writeEnergyPerWord = 0.0;
    Power leakagePower = 0.0;
    int readPorts = 1;
    int writePorts = 1;
    Area area = 0.0;

    /** Build the DigitalMemory. @throws ConfigError. */
    DigitalMemory instantiate() const;

    bool operator==(const MemorySpec &) const = default;
};

/** Digital execution-unit kinds. */
enum class UnitKind
{
    Pipeline,
    Systolic,
};

/**
 * One digital execution unit plus its buffer wiring. A single vector
 * of these preserves the registration order of mixed pipeline/systolic
 * designs (the engine's unit order is observable in reports).
 */
struct UnitSpec
{
    UnitKind kind = UnitKind::Pipeline;
    /** Pipeline parameters (kind == Pipeline). */
    ComputeUnitParams pipeline;
    /** Systolic parameters (kind == Systolic). */
    SystolicArrayParams systolic;
    /** Input memories in port order. */
    std::vector<std::string> inputMemories;
    /** Output memories. */
    std::vector<std::string> outputMemories;

    const std::string &name() const;

    bool operator==(const UnitSpec &) const = default;
};

// --------------------------------------------------------- design spec

/** Optional point-to-point link config. */
struct CommSpec
{
    bool present = false;
    /** Energy per byte [J/B]; 0 = the surveyed default. */
    Energy energyPerByte = 0.0;

    bool operator==(const CommSpec &) const = default;
};

/** A complete, serializable design point. */
struct DesignSpec
{
    std::string name;
    double fps = 30.0;
    Frequency digitalClock = 50e6;

    std::vector<StageSpec> stages;
    std::vector<AnalogArraySpec> analogArrays;
    std::vector<MemorySpec> memories;
    std::vector<UnitSpec> units;

    /** Memory receiving the ADC output ("" = none). */
    std::string adcOutputMemory;
    CommSpec mipi;
    CommSpec tsv;
    /** Final-output data-volume override [B]; -1 = derived. */
    int64_t pipelineOutputBytes = -1;

    /** Stage-name -> hardware-name pairs. */
    std::vector<std::pair<std::string, std::string>> mapping;

    /**
     * Structural validation without building anything: unique names,
     * edge/wiring references resolve, mapping targets exist. The
     * deeper physics checks still run inside simulate(). Every check
     * of MaterializedSpec, in order.
     *
     * @throws ConfigError describing the first violation.
     */
    void validate() const;

    /**
     * Lower onto the Design engine: MaterializedSpec's whole path,
     * every check and then every part.
     *
     * @throws ConfigError on any invalid parameter or reference.
     */
    Design materialize() const;

    bool operator==(const DesignSpec &) const = default;
};

// ----------------------------------------------------------- JSON shape

/**
 * How a document spells one field: a double, an int (a number outside
 * [-2^31, 2^31) is CAMJ-E018), an int64_t, a bool, a string, an enum
 * token (Field::tokens), a Shape (a 1-3 element array), a string list,
 * a nested struct or a std::vector of them (Field::nested). field()
 * derives it from the field's C++ type.
 */
enum class FieldKind : unsigned char
{
    Number, Int32, Int64, Bool, String, Enum, Shape, StringList, Object,
    ObjectList,
};

/** The tokens of an enum whose values run 0..count-1, in the order an
 *  unknown token's error lists them. */
struct EnumTokens
{
    /** What a token names ("memory kind"). */
    const char *what;
    int count;
    const char *(*name)(int value);
};

struct FieldTable;

/**
 * One member of a spec object's JSON form: the key, the struct field
 * it holds (at), whether a document must carry it, and when the
 * writer emits it (written; nullptr: always). An absent member that
 * is not required keeps the field's default, which reset() restores.
 */
struct Field
{
    std::string_view key;
    FieldKind kind;
    bool required;
    void *(*at)(void *owner);
    void (*reset)(void *owner);
    bool (*written)(const void *owner);
    const EnumTokens *tokens;
    const FieldTable *nested;
};

/**
 * The JSON shape of one spec object: its fields in document order,
 * the order toJsonValue writes, fromJsonValue reads and the key lint
 * lists them (a did-you-mean hint takes the first closest key).
 */
struct FieldTable
{
    std::span<const Field> fields;
    /** A variant object: fields[0] is an enum whose value picks the
     *  table whose fields follow. */
    std::span<const FieldTable *const> variants;
    /** A link's presence flag, set exactly when the document carries
     *  the object; the writer writes only a present one. */
    void *(*present)(void *owner);
    // The std::vector of these structs an ObjectList holds.
    void (*resize)(void *list, size_t n);
    size_t (*size)(const void *list);
    void *(*element)(void *list, size_t i);
};

namespace fields
{

template <class M>
struct MemberOf;

template <class C, class T>
struct MemberOf<T C::*>
{
    using Owner = C;
    using Type = T;
};

/** The field a chain of member pointers reaches from @p owner. */
template <auto First, auto... Rest>
void *
fieldAt(void *owner)
{
    using Owner = typename MemberOf<decltype(First)>::Owner;
    void *field = &(static_cast<Owner *>(owner)->*First);
    if constexpr (sizeof...(Rest) == 0)
        return field;
    else
        return fieldAt<Rest...>(field);
}

/** Set the field to its value in a value-initialized owner. */
template <class T, auto First, auto... Rest>
void
resetAt(void *owner)
{
    using Owner = typename MemberOf<decltype(First)>::Owner;
    static const Owner d{};
    *static_cast<T *>(fieldAt<First, Rest...>(owner)) =
        *static_cast<const T *>(fieldAt<First, Rest...>(
            const_cast<Owner *>(&d)));
}

template <class T>
constexpr FieldKind
kindOf()
{
    if constexpr (std::is_same_v<T, double>)
        return FieldKind::Number;
    else if constexpr (std::is_same_v<T, int>)
        return FieldKind::Int32;
    else if constexpr (std::is_same_v<T, int64_t>)
        return FieldKind::Int64;
    else if constexpr (std::is_same_v<T, bool>)
        return FieldKind::Bool;
    else if constexpr (std::is_same_v<T, std::string>)
        return FieldKind::String;
    else if constexpr (std::is_enum_v<T>) {
        static_assert(std::is_same_v<std::underlying_type_t<T>, int>);
        return FieldKind::Enum;
    } else if constexpr (std::is_same_v<T, Shape>)
        return FieldKind::Shape;
    else if constexpr (std::is_same_v<T, std::vector<std::string>>)
        return FieldKind::StringList;
    else if constexpr (requires { typename T::value_type; })
        return FieldKind::ObjectList;
    else
        return FieldKind::Object;
}

/** A document must carry the field. */
struct Required {};

constexpr void apply(Field &f, Required) { f.required = true; }
constexpr void apply(Field &f, const EnumTokens *t) { f.tokens = t; }
constexpr void apply(Field &f, const FieldTable *t) { f.nested = t; }
constexpr void apply(Field &f, bool (*when)(const void *)) { f.written = when; }

/** The entry of the field the member pointers reach, spelled @p key;
 *  each option sets Required, the tokens of an enum, the table of a
 *  nested struct or the writer's condition. */
template <auto... Path, class... Options>
constexpr Field
field(std::string_view key, Options... options)
{
    using T = typename MemberOf<decltype((Path, ...))>::Type;
    Field f{key,     kindOf<T>(), false,   fieldAt<Path...>,
            resetAt<T, Path...>, nullptr, nullptr, nullptr};
    (apply(f, options), ...);
    return f;
}

/** The table of struct T. */
template <class T>
constexpr FieldTable
table(std::span<const Field> fields,
      std::span<const FieldTable *const> variants = {},
      void *(*present)(void *) = nullptr)
{
    return {fields, variants, present,
            [](void *list, size_t n) {
                auto &v = *static_cast<std::vector<T> *>(list);
                v.clear();
                v.resize(n);
            },
            [](const void *list) {
                return static_cast<const std::vector<T> *>(list)->size();
            },
            [](void *list, size_t i) -> void * {
                return &(*static_cast<std::vector<T> *>(list))[i];
            }};
}

} // namespace fields

/** The tables of the objects a document nests (spec.cc). */
extern const FieldTable kApsTable, kAdcTable, kSwitchedCapTable,
    kAnalogMemoryTable, kConverterTable, kCapNodeTable, kStaticBiasTable,
    kCellTable, kCustomComponentTable, kComponentTable, kStageTable,
    kAnalogArrayTable, kMemoryTable, kPipelineUnitTable,
    kSystolicUnitTable, kUnitTable, kCommTable, kMappingTable;

/** The member a document may lead with, its format version: it holds
 *  no DesignSpec field. */
inline constexpr std::string_view kSpecVersionKey = "camjSpecVersion";

/** The top-level members after the version. */
inline constexpr Field kSpecFields[] = {
    fields::field<&DesignSpec::name>("name", fields::Required{}),
    fields::field<&DesignSpec::fps>("fps"),
    fields::field<&DesignSpec::digitalClock>("digitalClock"),
    fields::field<&DesignSpec::stages>("stages", &kStageTable),
    fields::field<&DesignSpec::analogArrays>("analogArrays",
                                             &kAnalogArrayTable),
    fields::field<&DesignSpec::memories>("memories", &kMemoryTable),
    fields::field<&DesignSpec::units>("units", &kUnitTable),
    fields::field<&DesignSpec::adcOutputMemory>(
        "adcOutputMemory", +[](const void *s) {
            return !static_cast<const DesignSpec *>(s)
                        ->adcOutputMemory.empty();
        }),
    fields::field<&DesignSpec::mipi>("mipi", &kCommTable),
    fields::field<&DesignSpec::tsv>("tsv", &kCommTable),
    fields::field<&DesignSpec::pipelineOutputBytes>(
        "pipelineOutputBytes", +[](const void *s) {
            return static_cast<const DesignSpec *>(s)
                       ->pipelineOutputBytes >= 0;
        }),
    fields::field<&DesignSpec::mapping>("mapping", &kMappingTable),
};

inline constexpr FieldTable kSpecTable =
    fields::table<DesignSpec>(kSpecFields);

/**
 * Where a value sits in a document, as a chain of segments on the
 * stack, spelled only when an error or a finding needs it: a member
 * key (joined with '.'), optionally selecting one element of that
 * array, labelled by the element's non-empty string "name" or else its
 * index ("memories[ActBuf].capacityWords", "mapping[2].hw"). Lowering
 * errors and the key lint spell paths with it.
 */
struct KeyPath
{
    const KeyPath *parent = nullptr;
    std::string_view member;
    const json::Value *element = nullptr;
    size_t index = 0;
};

/** Append @p path's spelling to @p out. */
void appendPath(std::string &out, const KeyPath *path);

// ------------------------------------------------------- materialization

/** What a spec edit changed: one bit per top-level member, in the
 *  order fromJsonValue reads them (the version, then kSpecFields), then
 *  one per kRefFields entry. */
using SpecMemberMask = uint32_t;

/** The fields of list elements that validation reads (names, the
 *  names they reference, a stage's op), and nothing else of their
 *  member. Each has a bit of its own after the members'. */
inline constexpr std::pair<std::string_view, std::string_view>
    kRefFields[] = {
        {"stages", "name"},          {"stages", "op"},
        {"stages", "inputs"},        {"analogArrays", "name"},
        {"memories", "name"},        {"units", "name"},
        {"units", "inputMemories"},  {"units", "outputMemories"},
};

/** The bits of an edit to field @p field of an element of the
 *  top-level member @p key: the field's own bit when kRefFields lists
 *  it, else the member's. An empty @p field is the member whole, every
 *  bit it has. A constant expression for a key the table has, so a
 *  misspelt constant does not compile.
 *  @throws ConfigError for a key the table lacks. */
constexpr SpecMemberMask
specFieldBits(std::string_view key, std::string_view field)
{
    constexpr size_t kRefBit = 1 + std::size(kSpecFields);
    SpecMemberMask refs = 0;
    for (size_t i = 0; i < std::size(kRefFields); ++i) {
        if (kRefFields[i].first != key)
            continue;
        if (kRefFields[i].second == field)
            return SpecMemberMask{1} << (kRefBit + i);
        refs |= SpecMemberMask{1} << (kRefBit + i);
    }
    if (key == kSpecVersionKey)
        return 1;
    for (size_t i = 0; i < std::size(kSpecFields); ++i) {
        if (key == kSpecFields[i].key)
            return (SpecMemberMask{2} << i) | (field.empty() ? refs : 0);
    }
    throw ConfigError("spec: no member table entry for this key");
}

/** Every bit of the top-level member named @p key. */
constexpr SpecMemberMask
specMemberBit(std::string_view key)
{
    return specFieldBits(key, {});
}

/**
 * The name references of a spec that validation resolves to indices,
 * so the Design parts that wire by them look nothing up by name.
 */
struct ResolvedNames
{
    /** Per stage, its producers' stage indices in operand order. */
    std::vector<std::vector<StageId>> producers;
    /** Per unit, the memory indices of its input ports in port order,
     *  and of its outputs. */
    std::vector<std::vector<int>> unitInputs;
    std::vector<std::vector<int>> unitOutputs;
    /** The ADC output memory's index; -1 for none. */
    int adcMemory = -1;
    /** Per stage, the hardware its mapping entry names; HwKind::None
     *  for a stage the mapping leaves out. */
    std::vector<HwTarget> targets;
};

/**
 * A spec validated and lowered onto a Design, kept so that a spec
 * which differs from it in a few fields is materialized by redoing
 * only what those fields feed.
 *
 * validate() and materialize() are two ordered lists of routines:
 * the checks, which also resolve names to indices (ResolvedNames),
 * and then the parts of the Design. Each routine takes only the spec
 * fields and earlier results it reads, plus the design name, which
 * only labels its messages (no verdict depends on it), and its table
 * entry names those reads as SpecMemberMask bits: a check of names
 * reads only its members' kRefFields bits, a part its whole members.
 * The whole path runs every routine.
 * rebuild() runs the routines whose reads an edit reaches, in the
 * same order: every other routine reads what it read before, so its
 * check passes again and its part stands, and the first error
 * rebuild() meets is the one the whole path throws.
 */
class MaterializedSpec
{
  public:
    /** Validate and materialize @p spec: every routine in order.
     *  @throws ConfigError, the one spec.materialize() throws. */
    explicit MaterializedSpec(const DesignSpec &spec);

    /** spec.materialize() of the spec last built. */
    const Design &design() const { return design_; }

    /** Move the Design out. */
    Design release() && { return std::move(design_); }

    /**
     * Rebuild in place for @p spec, which differs from every spec
     * this was built or rebuilt for only in the fields of
     * @p changed: run the routines those fields reach, in order.
     * design() then equals spec.materialize(), and a spec that fails
     * throws what spec.materialize() throws. After a throw, design()
     * is unspecified until a rebuild with the same @p changed
     * succeeds, since that reruns every routine the failed one left
     * undone.
     *
     * @throws ConfigError.
     */
    void rebuild(const DesignSpec &spec, SpecMemberMask changed);

  private:
    Design design_;
    ResolvedNames names_;

    /** Build the parts of design_ that @p dirty reaches, in order. */
    void buildParts(const DesignSpec &spec, SpecMemberMask dirty);
};

// ---------------------------------------------------------- diagnostics

/** Comma-join names for error messages; "<none>" when empty. Shared
 *  by every "references unknown X (registered: ...)" diagnostic. */
std::string joinNames(const std::vector<std::string> &names);

// -------------------------------------------------------- serialization
//
// A document is read and written through the tables of the JSON shape
// section: toJsonValue, fromJsonValue and the key lint
// (analysis::lintDocumentKeys) each walk them, so a new spec field is
// one table entry. A lowering error raised while reading a field
// carries the field's path in the key lint's spelling
// ("memories[ActBuf].wordBits: json: number 4294967360 does not fit a
// 32-bit integer") and keeps its rule code.

/** Spec -> JSON value tree (the document toJson() renders): the
 *  version, then kSpecTable's fields the writer emits; only the
 *  top-level members whose bits @p members has. */
json::Value toJsonValue(const DesignSpec &spec,
                        SpecMemberMask members = ~SpecMemberMask{0});

/** Spec -> pretty-printed JSON document. */
std::string toJson(const DesignSpec &spec);

/**
 * Set field @p f of @p owner, an object of the table holding @p f, to
 * @p value as lowering reads the member: whatever the field held, with
 * the same conversion and the same refusal (a ConfigError naming the
 * field by its key). Grid axes write their values with it.
 *
 * @throws ConfigError.
 */
void assignField(const Field &f, const json::Value &value, void *owner);

/** The table of @p owner's variant, whose fields follow @p t's; null
 *  when @p t has no variants. */
const FieldTable *variantOf(const FieldTable &t, void *owner);

/**
 * Parsed JSON document -> spec: the version, then every kSpecFields
 * member in table order, so the first failing member names the error.
 * The tree-level twin of fromJson().
 *
 * @throws ConfigError on unknown enum tokens, missing members, values
 *         of the wrong type or out of their field's range.
 */
DesignSpec fromJsonValue(const json::Value &doc);

/** The same for the top-level members whose bits @p members has,
 *  lowered over @p spec's, which keeps every other field (a grid point
 *  written on its tree). @throws ConfigError as fromJsonValue. */
void fromJsonValue(const json::Value &doc, SpecMemberMask members,
                   DesignSpec &spec);

/**
 * JSON document -> spec.
 *
 * @throws ConfigError on syntax errors, unknown enum tokens, or
 *         missing required members.
 */
DesignSpec fromJson(const std::string &text);

/** Load a spec from a JSON file. @throws ConfigError on I/O errors. */
DesignSpec loadSpecFile(const std::string &path);

/** Save a spec as JSON. @throws ConfigError on I/O errors. */
void saveSpecFile(const DesignSpec &spec, const std::string &path);

} // namespace camj::spec

#endif // CAMJ_SPEC_SPEC_H

/**
 * @file
 * Tests for the data-driven front-end: the JSON layer, the DesignSpec
 * value type (round-trips, materialization equivalence against a
 * hand-built Design), and DesignBuilder's incremental validation.
 */

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "common/logging.h"
#include "common/units.h"
#include "core/design.h"
#include "spec/builder.h"
#include "spec/json.h"
#include "spec/spec.h"

namespace camj
{
namespace
{

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

// ------------------------------------------------------------------ JSON

TEST(Json, ParsesScalarsArraysObjects)
{
    json::Value v = json::Value::parse(
        R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "x"}, "e": true,)"
        R"( "f": null})");
    EXPECT_DOUBLE_EQ(v.at("a").asNumber(), 1.5);
    EXPECT_EQ(v.at("b").asArray().size(), 3u);
    EXPECT_EQ(v.at("b").asArray()[2].asInt(), 3);
    EXPECT_EQ(v.at("c").at("d").asString(), "x");
    EXPECT_TRUE(v.at("e").asBool());
    EXPECT_TRUE(v.at("f").isNull());
}

TEST(Json, StringEscapes)
{
    json::Value v = json::Value::parse(
        R"(["a\"b", "tab\tnewline\n", "Aé"])");
    const auto &arr = v.asArray();
    EXPECT_EQ(arr[0].asString(), "a\"b");
    EXPECT_EQ(arr[1].asString(), "tab\tnewline\n");
    EXPECT_EQ(arr[2].asString(), "A\xc3\xa9");
}

TEST(Json, DoublesRoundTripExactly)
{
    const double values[] = {100e-12, 1.0 / 3.0, 2.5, 36e-12, 5e-15,
                             1.380649e-23};
    for (double d : values) {
        json::Value v(d);
        json::Value back = json::Value::parse(v.dump());
        EXPECT_EQ(back.asNumber(), d);
    }
}

TEST(Json, SyntaxErrorsCarryLineContext)
{
    try {
        json::Value::parse("{\n  \"a\": 1,\n  oops\n}");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
}

TEST(Json, RejectsTrailingGarbageAndDuplicateKeys)
{
    EXPECT_THROW(json::Value::parse("{} x"), ConfigError);
    EXPECT_THROW(json::Value::parse(R"({"a":1,"a":2})"), ConfigError);
}

TEST(Json, MissingMemberListsExistingKeys)
{
    json::Value v = json::Value::parse(R"({"alpha":1,"beta":2})");
    try {
        v.at("gamma");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("alpha"),
                  std::string::npos);
    }
}

// ---------------------------------------------- spec <-> design parity

/** The Fig. 5 quickstart's report as a Design assembled part by part,
 *  without a spec, simulated it, pinned bit for bit: the spec path
 *  must reproduce it. */
EnergyReport
pinnedFig5Report()
{
    EnergyReport r;
    r.designName = "fig5";
    r.fps = 30.0;
    r.units = {
        {"PixelArray", EnergyCategory::Sen, Layer::Sensor,
         0x1.61644f2f3e2abp-30},
        {"AdcArray", EnergyCategory::Sen, Layer::Sensor,
         0x1.57ec1ec738ca4p-26},
        {"EdgeUnit", EnergyCategory::CompD, Layer::Sensor,
         0x1.4341a4a5abadp-31},
        {"LineBuffer", EnergyCategory::MemD, Layer::Sensor,
         0x1.bac5614abae92p-25},
        {"MIPI-CSI2", EnergyCategory::Mipi, Layer::Sensor,
         0x1.50b9b62c92d43p-26},
    };
    r.frameTime = 0x1.1111111111111p-5;
    r.digitalLatency = 0x1.48d55be787633p-16;
    r.analogUnitTime = 0x1.6bdff3321ad58p-7;
    r.numAnalogSlots = 3;
    r.mipiBytes = 196;
    r.tsvBytes = 0;
    r.sensorLayerArea = 0x1.b627c7395f8dbp-26;
    r.computeLayerArea = 0.0;
    r.footprint = 0x1.b627c7395f8dbp-26;
    return r;
}

/** The identical design through the DesignBuilder front-end. */
spec::DesignSpec
builtFig5Spec()
{
    ApsParams aps;
    aps.pixelsPerComponent = 4;
    spec::ComponentSpec pixel;
    pixel.kind = spec::ComponentKind::Aps4T;
    pixel.aps = aps;
    spec::ComponentSpec adc;
    adc.kind = spec::ComponentKind::ColumnAdc;
    adc.adc = {.bits = 10};

    return spec::DesignBuilder("fig5")
        .fps(30.0)
        .digitalClock(10e6)
        .inputStage("Input", {32, 32, 1})
        .stage({.name = "Binning",
                .op = StageOp::Binning,
                .inputSize = {32, 32, 1},
                .outputSize = {16, 16, 1},
                .kernel = {2, 2, 1},
                .stride = {2, 2, 1}},
               {"Input"})
        .stage({.name = "Edge",
                .op = StageOp::DepthwiseConv2d,
                .inputSize = {16, 16, 1},
                .outputSize = {14, 14, 1},
                .kernel = {3, 3, 1},
                .stride = {1, 1, 1}},
               {"Binning"})
        .analogArray({.name = "PixelArray",
                      .role = AnalogRole::Sensing,
                      .numComponents = {16, 16, 1},
                      .inputShape = {1, 32, 1},
                      .outputShape = {1, 16, 1},
                      .componentArea = 36e-12,
                      .component = pixel})
        .analogArray({.name = "AdcArray",
                      .role = AnalogRole::Adc,
                      .numComponents = {16, 1, 1},
                      .inputShape = {1, 16, 1},
                      .outputShape = {1, 16, 1},
                      .componentArea = 1e-9,
                      .component = adc})
        .sram("LineBuffer", Layer::Sensor, MemoryKind::LineBuffer, 48,
              8, 65, 1.0)
        .computeUnit({.name = "EdgeUnit",
                      .layer = Layer::Sensor,
                      .inputPixelsPerCycle = {1, 3, 1},
                      .outputPixelsPerCycle = {1, 1, 1},
                      .energyPerCycle = 3e-12,
                      .numStages = 2},
                     {"LineBuffer"})
        .adcOutput("LineBuffer")
        .mipi()
        .map("Input", "PixelArray")
        .map("Binning", "PixelArray")
        .map("Edge", "EdgeUnit")
        .spec();
}

/** Bit-identical comparison of two reports. */
void
expectIdenticalReports(const EnergyReport &a, const EnergyReport &b)
{
    EXPECT_EQ(a.designName, b.designName);
    EXPECT_EQ(a.fps, b.fps);
    ASSERT_EQ(a.units.size(), b.units.size());
    for (size_t i = 0; i < a.units.size(); ++i) {
        EXPECT_EQ(a.units[i].name, b.units[i].name);
        EXPECT_EQ(a.units[i].category, b.units[i].category);
        EXPECT_EQ(a.units[i].layer, b.units[i].layer);
        EXPECT_EQ(a.units[i].energy, b.units[i].energy)
            << "unit " << a.units[i].name;
    }
    EXPECT_EQ(a.frameTime, b.frameTime);
    EXPECT_EQ(a.digitalLatency, b.digitalLatency);
    EXPECT_EQ(a.analogUnitTime, b.analogUnitTime);
    EXPECT_EQ(a.numAnalogSlots, b.numAnalogSlots);
    EXPECT_EQ(a.mipiBytes, b.mipiBytes);
    EXPECT_EQ(a.tsvBytes, b.tsvBytes);
    EXPECT_EQ(a.sensorLayerArea, b.sensorLayerArea);
    EXPECT_EQ(a.computeLayerArea, b.computeLayerArea);
    EXPECT_EQ(a.footprint, b.footprint);
    EXPECT_EQ(a.total(), b.total());
}

TEST(DesignSpec, MaterializedSpecMatchesHandBuiltBitExactly)
{
    EnergyReport built = builtFig5Spec().materialize().simulate();
    expectIdenticalReports(pinnedFig5Report(), built);
    EXPECT_EQ(built.total(), 0x1.8f983a6858ac3p-24);
}

TEST(DesignSpec, JsonRoundTripIsBitExact)
{
    spec::DesignSpec original = builtFig5Spec();
    std::string doc = spec::toJson(original);
    spec::DesignSpec loaded = spec::fromJson(doc);

    // Same document again (serialization is deterministic)...
    EXPECT_EQ(spec::toJson(loaded), doc);
    // ...and the loaded spec simulates bit-identically.
    expectIdenticalReports(original.materialize().simulate(),
                           loaded.materialize().simulate());
}

TEST(DesignSpec, FileRoundTrip)
{
    spec::DesignSpec original = builtFig5Spec();
    const std::string path =
        ::testing::TempDir() + "/camj_spec_test.json";
    spec::saveSpecFile(original, path);
    spec::DesignSpec loaded = spec::loadSpecFile(path);
    expectIdenticalReports(original.materialize().simulate(),
                           loaded.materialize().simulate());
}

TEST(DesignSpec, LoadMissingFileIsConfigError)
{
    EXPECT_THROW(spec::loadSpecFile("/nonexistent/camj.json"),
                 ConfigError);
}

TEST(DesignSpec, UnknownEnumTokensRejectedWithKnownList)
{
    spec::DesignSpec s = builtFig5Spec();
    std::string doc = spec::toJson(s);
    std::string bad = doc;
    bad.replace(bad.find("\"aps4t\""), 7, "\"aps9t\"");
    try {
        spec::fromJson(bad);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        // The error names the bad token and the known alternatives.
        EXPECT_NE(std::string(e.what()).find("aps9t"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("aps4t"),
                  std::string::npos);
    }
}

TEST(DesignSpec, VersionGate)
{
    std::string doc = spec::toJson(builtFig5Spec());
    std::string bad = doc;
    bad.replace(bad.find("\"camjSpecVersion\": 1"),
                std::string("\"camjSpecVersion\": 1").size(),
                "\"camjSpecVersion\": 99");
    EXPECT_THROW(spec::fromJson(bad), ConfigError);
}

TEST(DesignSpec, ValidateCatchesDanglingReferences)
{
    spec::DesignSpec s = builtFig5Spec();
    s.adcOutputMemory = "NoSuchBuffer";
    EXPECT_THROW(s.validate(), ConfigError);

    s = builtFig5Spec();
    s.mapping.emplace_back("Edge", "EdgeUnit"); // duplicate stage
    EXPECT_THROW(s.validate(), ConfigError);

    s = builtFig5Spec();
    s.units[0].inputMemories.push_back("Bogus");
    EXPECT_THROW(s.validate(), ConfigError);
}

TEST(DesignSpec, EveryComponentKindRoundTrips)
{
    using spec::ComponentKind;
    const ComponentKind kinds[] = {
        ComponentKind::Aps4T, ComponentKind::Aps3T, ComponentKind::Dps,
        ComponentKind::PwmPixel, ComponentKind::DvsPixel,
        ComponentKind::ColumnAdc, ComponentKind::SwitchedCapMac,
        ComponentKind::ChargeAdder, ComponentKind::Scaler,
        ComponentKind::AbsUnit, ComponentKind::MaxUnit,
        ComponentKind::Comparator, ComponentKind::LogUnit,
        ComponentKind::PassiveAnalogMemory,
        ComponentKind::ActiveAnalogMemory,
        ComponentKind::ChargeToVoltage,
        ComponentKind::CurrentToVoltage, ComponentKind::TimeToVoltage,
        ComponentKind::SampleHold,
    };
    for (ComponentKind k : kinds) {
        EXPECT_EQ(spec::componentKindFromName(spec::componentKindName(k)),
                  k);
        // Every kind's factory parameters instantiate cleanly.
        spec::ComponentSpec c;
        c.kind = k;
        AComponent comp = c.instantiate();
        EXPECT_GT(comp.numCells(), 0);
    }
}

// ------------------------------------------------------- DesignBuilder

TEST(DesignBuilder, RejectsDuplicateStageNames)
{
    spec::DesignBuilder b("dup");
    b.inputStage("Input", {8, 8, 1});
    EXPECT_THROW(b.inputStage("Input", {8, 8, 1}), ConfigError);
}

TEST(DesignBuilder, RejectsWrongArity)
{
    spec::DesignBuilder b("arity");
    b.inputStage("Input", {8, 8, 1});
    // Threshold is single-input; passing none must fail eagerly.
    EXPECT_THROW(b.stage({.name = "Th",
                          .op = StageOp::Threshold,
                          .inputSize = {8, 8, 1},
                          .outputSize = {8, 8, 1}},
                         {}),
                 ConfigError);
    // Two inputs on a one-input op as well.
    EXPECT_THROW(b.stage({.name = "Th",
                          .op = StageOp::Threshold,
                          .inputSize = {8, 8, 1},
                          .outputSize = {8, 8, 1}},
                         {"Input", "Input"}),
                 ConfigError);
}

TEST(DesignBuilder, RejectsUnknownProducer)
{
    spec::DesignBuilder b("prod");
    EXPECT_THROW(b.stage({.name = "Th",
                          .op = StageOp::Threshold,
                          .inputSize = {8, 8, 1},
                          .outputSize = {8, 8, 1}},
                         {"Missing"}),
                 ConfigError);
}

TEST(DesignBuilder, RejectsInvalidStageParamsEagerly)
{
    spec::DesignBuilder b("shape");
    b.inputStage("Input", {8, 8, 1});
    // 3x3 stencil cannot produce 8x8 from 8x8 without padding: the
    // Stage constructor's stencil check fires inside the builder.
    EXPECT_THROW(b.stage({.name = "Conv",
                          .op = StageOp::Conv2d,
                          .inputSize = {8, 8, 1},
                          .outputSize = {8, 8, 1},
                          .kernel = {3, 3, 1},
                          .stride = {1, 1, 1}},
                         {"Input"}),
                 ConfigError);
}

TEST(DesignBuilder, RejectsDuplicateHardwareAcrossClasses)
{
    spec::DesignBuilder b("hw");
    b.sram("Buf", Layer::Sensor, MemoryKind::Fifo, 64, 8, 65, 1.0);
    EXPECT_THROW(b.sram("Buf", Layer::Sensor, MemoryKind::Fifo, 64, 8,
                        65, 1.0),
                 ConfigError);
    spec::ComponentSpec pix;
    pix.kind = spec::ComponentKind::Aps4T;
    EXPECT_THROW(b.analogArray({.name = "Buf",
                                .role = AnalogRole::Sensing,
                                .numComponents = {8, 8, 1},
                                .component = pix}),
                 ConfigError);
    EXPECT_THROW(b.computeUnit({.name = "Buf"}), ConfigError);
}

TEST(DesignBuilder, RejectsDanglingWiring)
{
    spec::DesignBuilder b("wires");
    EXPECT_THROW(b.adcOutput("NoBuf"), ConfigError);
    b.sram("Buf", Layer::Sensor, MemoryKind::Fifo, 64, 8, 65, 1.0);
    EXPECT_THROW(b.connectMemoryToUnit("Buf", "NoUnit"), ConfigError);
    EXPECT_THROW(b.computeUnit({.name = "U"}, {"NoBuf"}), ConfigError);
}

TEST(DesignBuilder, RejectsBadMappings)
{
    spec::DesignBuilder b("maps");
    b.inputStage("Input", {8, 8, 1});
    spec::ComponentSpec pix;
    pix.kind = spec::ComponentKind::Dps;
    b.analogArray({.name = "Pixel",
                   .role = AnalogRole::Sensing,
                   .numComponents = {8, 8, 1},
                   .component = pix});
    EXPECT_THROW(b.map("NoStage", "Pixel"), ConfigError);
    EXPECT_THROW(b.map("Input", "NoHw"), ConfigError);
    b.map("Input", "Pixel");
    EXPECT_THROW(b.map("Input", "Pixel"), ConfigError);
}

TEST(DesignBuilder, RejectsBadTopLevelParams)
{
    EXPECT_THROW(spec::DesignBuilder(""), ConfigError);
    spec::DesignBuilder b("ok");
    EXPECT_THROW(b.fps(0.0), ConfigError);
    EXPECT_THROW(b.digitalClock(-1.0), ConfigError);
    EXPECT_THROW(b.pipelineOutputBytes(-5), ConfigError);
}

TEST(DesignBuilder, SpecConstructorValidates)
{
    spec::DesignSpec s = builtFig5Spec();
    s.units[0].inputMemories.push_back("Bogus");
    EXPECT_THROW(spec::DesignBuilder{s}, ConfigError);
}

TEST(DesignBuilder, VariantDerivation)
{
    // The core exploration move: load a spec, tweak one knob, rerun.
    spec::DesignSpec base = builtFig5Spec();
    spec::DesignSpec fast = base;
    fast.name = "fig5-120fps";
    fast.fps = 120.0;

    EnergyReport slow = base.materialize().simulate();
    EnergyReport quick = fast.materialize().simulate();
    EXPECT_NEAR(quick.frameTime * 4.0, slow.frameTime, 1e-9);
}

// ------------------------------------------------------------ JSON shape

/**
 * A spec whose every object kind appears with every field the writer
 * emits for it set away from its default: each component block (the
 * kinds pick them), each cell class, both memory-model families, both
 * unit kinds, and every optional top-level member.
 */
spec::DesignSpec
everyFieldSet()
{
    spec::DesignSpec s;
    s.name = "every-field";
    s.fps = 12.5;
    s.digitalClock = 75e6;

    spec::StageSpec in;
    in.params.name = "In";
    in.params.op = StageOp::Input;
    in.params.outputSize = {64, 48, 3};
    in.params.kernel = {2, 3, 1};
    in.params.stride = {3, 2, 1};
    in.params.bitDepth = 10;
    spec::StageSpec conv;
    conv.params.name = "Conv";
    conv.params.op = StageOp::CompareSample;
    conv.params.inputSize = {64, 48, 3};
    conv.params.outputSize = {32, 24, 7};
    conv.params.kernel = {3, 3, 3};
    conv.params.stride = {2, 2, 1};
    conv.params.bitDepth = 4;
    conv.params.opsPerOutputOverride = 9;
    conv.inputs = {"In"};
    s.stages = {in, conv};

    auto array = [&](const char *name, spec::ComponentKind kind) {
        spec::AnalogArraySpec a;
        a.name = name;
        a.layer = Layer::Compute;
        a.role = AnalogRole::AnalogCompute;
        a.numComponents = {4, 5, 2};
        a.inputShape = {2, 1, 3};
        a.outputShape = {1, 2, 3};
        a.componentArea = 7e-12;
        a.component.kind = kind;
        s.analogArrays.push_back(a);
        return &s.analogArrays.back().component;
    };
    spec::ComponentSpec *c = array("Dps", spec::ComponentKind::Dps);
    c->aps = {6e-15, 3e-15, 2e-12, 0.8, 3.3, false, 4};
    c->adc = {12, 4e-12};
    c = array("Mac", spec::ComponentKind::SwitchedCapMac);
    c->sc = {1e-15, 16, 0.7, 1.8, 6, false, 2.0, 12.0};
    c = array("Max", spec::ComponentKind::MaxUnit);
    c->maxInputs = 9;
    c = array("Cmp", spec::ComponentKind::Comparator);
    c->comparatorEnergyOverride = 3e-14;
    c = array("Log", spec::ComponentKind::LogUnit);
    c->logLoadCap = 70e-15;
    c->logVdda = 1.2;
    c = array("Mem", spec::ComponentKind::ActiveAnalogMemory);
    c->analogMem = {6, 0.9, 1.5, 2e-15, 0.7e-12, 3};
    c = array("Ctv", spec::ComponentKind::ChargeToVoltage);
    c->conv = {3e-15, 7, 0.6, 1.1, 11.0};
    c = array("Custom", spec::ComponentKind::Custom);
    c->custom.name = "chain";
    c->custom.input = SignalDomain::Current;
    c->custom.output = SignalDomain::Time;
    spec::CellSpec dynamic;
    dynamic.name = "caps";
    dynamic.caps = {{1e-15, 0.5}, {2e-15, 0.25}};
    dynamic.spatial = 3;
    dynamic.temporal = 2;
    dynamic.scope = TimingScope::Frame;
    spec::CellSpec bias;
    bias.cls = spec::CellClass::StaticBias;
    bias.name = "amp";
    bias.bias = {4e-15, 0.6, 1.7, 3.0, 18.0, 2e6, BiasMode::GmOverId};
    bias.scope = TimingScope::ComponentSpan;
    spec::CellSpec nonLinear;
    nonLinear.cls = spec::CellClass::NonLinear;
    nonLinear.name = "adc";
    nonLinear.bits = 9;
    nonLinear.energyOverride = 5e-13;
    c->custom.cells = {dynamic, bias, nonLinear};

    spec::MemorySpec explicitModel;
    explicitModel.name = "Explicit";
    explicitModel.layer = Layer::Dram;
    explicitModel.kind = MemoryKind::DoubleBuffer;
    explicitModel.model = spec::MemoryModel::Explicit;
    explicitModel.capacityWords = 4096;
    explicitModel.wordBits = 16;
    explicitModel.activeFraction = 0.5;
    explicitModel.readEnergyPerWord = 1e-12;
    explicitModel.writeEnergyPerWord = 2e-12;
    explicitModel.leakagePower = 3e-6;
    explicitModel.readPorts = 2;
    explicitModel.writePorts = 3;
    explicitModel.area = 4e-9;
    spec::MemorySpec derived;
    derived.name = "Derived";
    derived.layer = Layer::OffChip;
    derived.kind = MemoryKind::LineBuffer;
    derived.model = spec::MemoryModel::Sttram;
    derived.capacityWords = 1 << 20;
    derived.wordBits = 32;
    derived.nodeNm = 22;
    derived.activeFraction = 0.25;
    s.memories = {explicitModel, derived};

    spec::UnitSpec pipeline;
    pipeline.pipeline = {"Pipe", Layer::Compute, {2, 1, 1}, {1, 2, 1},
                         5e-12, 3, 80e6, 4, 6e-9};
    pipeline.inputMemories = {"Explicit", "Derived"};
    pipeline.outputMemories = {"Derived"};
    spec::UnitSpec systolic;
    systolic.kind = spec::UnitKind::Systolic;
    systolic.systolic = {"Array", Layer::Compute, 8, 4, 2e-13, 200e6,
                         1e-10};
    systolic.inputMemories = {"Derived"};
    systolic.outputMemories = {"Explicit"};
    s.units = {pipeline, systolic};

    s.adcOutputMemory = "Explicit";
    s.mipi = {true, 1e-10};
    s.tsv = {true, 2e-12};
    s.pipelineOutputBytes = 123;
    s.mapping = {{"In", "Dps"}, {"Conv", "Pipe"}};
    return s;
}

TEST(SpecFields, EveryObjectRoundTripsWithEveryFieldSet)
{
    // Each table is the format of its object: whatever the writer
    // emits, the reader reads back into the same field.
    const spec::DesignSpec s = everyFieldSet();
    const spec::DesignSpec back = spec::fromJsonValue(spec::toJsonValue(s));
    EXPECT_TRUE(back == s) << spec::toJson(s) << "read back as\n"
                           << spec::toJson(back);
    EXPECT_TRUE(spec::fromJson(spec::toJson(s)) == s);
    // No field is left at its default, so a field the writer or the
    // reader dropped would show above.
    EXPECT_FALSE(s == spec::DesignSpec{});
}

TEST(SpecFields, EveryWrittenKeyIsKnownToTheKeyLint)
{
    // The key lint reads the same tables, so no key toJsonValue can
    // emit is reported as unknown or obsolete.
    const json::Value doc = spec::toJsonValue(everyFieldSet());
    const std::vector<analysis::Diagnostic> diags =
        analysis::lintDocumentKeys(doc);
    for (const analysis::Diagnostic &d : diags)
        ADD_FAILURE() << d.format();
    // And a misspelt key still is, with the nearest key as its hint.
    json::Value misspelt = doc;
    misspelt.find("memories")->mutableArray()[0].set("wordBit",
                                                      json::Value(8));
    const std::vector<analysis::Diagnostic> one =
        analysis::lintDocumentKeys(misspelt);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].code, "CAMJ-W005");
    EXPECT_EQ(one[0].path, "memories[Explicit].wordBit");
    EXPECT_EQ(one[0].hint, "did you mean 'wordBits'?");
}

} // namespace
} // namespace camj

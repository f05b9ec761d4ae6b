/**
 * @file
 * Tests for the static spec analyzer: the golden corpus lints clean,
 * every rule fires with its exact code and field path on an injected
 * defect, simulation reports the code lint does for the same defect,
 * the grid prefilter never prunes a point full simulation would have
 * found feasible, and the formatted diagnostics of a seeded corpus
 * match recorded hashes byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/grid_analyzer.h"
#include "common/logging.h"
#include "explore/simulator.h"
#include "spec/builder.h"
#include "spec/grid.h"
#include "spec/samples.h"
#include "spec/spec.h"
#include "usecases/edgaze.h"

namespace camj
{
namespace
{

namespace fs = std::filesystem;
using analysis::Diagnostic;
using analysis::GridAnalysis;
using analysis::GridAnalyzer;
using analysis::PrefilterSpecSource;
using analysis::Severity;
using analysis::SpecAnalyzer;

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** True when a diagnostic with exactly @p code at @p path exists. */
bool
hasDiag(const std::vector<Diagnostic> &diags, const std::string &code,
        const std::string &path)
{
    for (const Diagnostic &d : diags) {
        if (d.code == code && d.path == path)
            return true;
    }
    return false;
}

std::string
dumpDiags(const std::vector<Diagnostic> &diags)
{
    return analysis::formatDiagnostics(diags);
}

std::vector<Diagnostic>
analyze(const spec::DesignSpec &spec)
{
    return SpecAnalyzer().analyze(spec);
}

spec::DesignSpec
detector()
{
    return spec::sampleDetectorSpec(30.0, 65);
}

// ---------------------------------------------------------- golden corpus

TEST(GoldenCorpus, LintsClean)
{
    SpecAnalyzer analyzer;
    size_t corpus = 0;
    for (const auto &entry : fs::directory_iterator(CAMJ_GOLDEN_DIR)) {
        if (entry.path().extension() != ".json" ||
            entry.path().filename() == "energies.json")
            continue;
        ++corpus;
        const json::Value doc =
            json::Value::parse(readFile(entry.path()));
        const std::vector<Diagnostic> diags =
            analyzer.analyzeDocument(doc);
        EXPECT_EQ(analysis::countSeverity(diags, Severity::Error), 0u)
            << entry.path().filename() << ":\n" << dumpDiags(diags);
        // One known, faithful warning: the engine itself warns about
        // the compressive readout's buffered throughput mismatch at
        // simulate time; the lint mirrors it. Everything else must
        // be warning-free.
        for (const Diagnostic &d : diags) {
            if (d.severity != Severity::Warning)
                continue;
            EXPECT_EQ(d.code, "CAMJ-W003")
                << entry.path().filename() << ": " << d.format();
            EXPECT_EQ(entry.path().stem().string(),
                      "jssc21ii-compressive")
                << entry.path().filename() << ": " << d.format();
        }
    }
    EXPECT_EQ(corpus, 27u);
}

TEST(GoldenCorpus, DetectorSweepExampleLintsCleanAndPrunesNothing)
{
    const std::string text =
        readFile(fs::path(CAMJ_EXAMPLES_DIR) / "detector_sweep.json");
    const std::vector<Diagnostic> diags =
        SpecAnalyzer().analyzeDocument(json::Value::parse(text));
    EXPECT_EQ(analysis::countSeverity(diags, Severity::Error), 0u)
        << dumpDiags(diags);
    EXPECT_EQ(analysis::countSeverity(diags, Severity::Warning), 0u)
        << dumpDiags(diags);

    const spec::SweepDocument doc = spec::sweepDocumentFromJson(text);
    const GridAnalysis grid = GridAnalyzer().analyze(doc.source());
    EXPECT_EQ(grid.totalPoints(), 108u);
    EXPECT_EQ(grid.prunedPoints(), 0u) << grid.summary();
}

TEST(GoldenCorpus, SampleDetectorAnalyzesClean)
{
    const std::vector<Diagnostic> diags = analyze(detector());
    EXPECT_EQ(analysis::countSeverity(diags, Severity::Error), 0u)
        << dumpDiags(diags);
    EXPECT_EQ(analysis::countSeverity(diags, Severity::Warning), 0u)
        << dumpDiags(diags);
}

// ------------------------------------------------------ injected defects

TEST(InjectedDefect, TopLevelParams)
{
    spec::DesignSpec s = detector();
    s.fps = -1.0;
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E001", "fps"))
        << dumpDiags(analyze(s));
    s = detector();
    s.digitalClock = 0.0;
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E001", "digitalClock"));
    s = detector();
    s.name.clear();
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E001", "name"));
}

TEST(InjectedDefect, DuplicateNames)
{
    spec::DesignSpec s = detector();
    s.memories.push_back(s.memories[0]);
    EXPECT_TRUE(
        hasDiag(analyze(s), "CAMJ-E002", "memories[ActBuf]"));
    s = detector();
    s.stages[2].params.name = "Bin"; // now two stages named Bin
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E002", "stages[Bin]"));
}

TEST(InjectedDefect, DanglingReferences)
{
    spec::DesignSpec s = detector();
    s.units[0].inputMemories[0] = "ActBfu";
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E003",
                        "units[Classifier].inputMemories[0]"));
    s = detector();
    s.adcOutputMemory = "Nope";
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E003", "adcOutputMemory"));
    s = detector();
    s.mapping[2].second = "Classifierz";
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E003", "mapping[2].hw"));
}

TEST(InjectedDefect, StageArity)
{
    spec::DesignSpec s = detector();
    s.stages[1].inputs.push_back("Conv"); // Binning is unary
    EXPECT_TRUE(
        hasDiag(analyze(s), "CAMJ-E004", "stages[Bin].inputs"));
}

TEST(InjectedDefect, StageGeometry)
{
    spec::DesignSpec s = detector();
    s.stages[1].params.outputSize = {81, 60, 1}; // breaks the stencil
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E005", "stages[Bin]"));
}

TEST(InjectedDefect, DagEdgeShapes)
{
    spec::DesignSpec s = detector();
    // A self-consistent Conv whose input no longer matches Bin's
    // output: the stage is valid, the edge is not.
    s.stages[2].params.inputSize = {40, 30, 1};
    s.stages[2].params.outputSize = {38, 28, 8};
    EXPECT_TRUE(
        hasDiag(analyze(s), "CAMJ-E006", "stages[Conv].inputSize"));
}

TEST(InjectedDefect, DagStructure)
{
    spec::DesignSpec s = detector();
    s.stages[1].inputs = {"Bin"};
    EXPECT_TRUE(
        hasDiag(analyze(s), "CAMJ-E007", "stages[Bin].inputs[0]"));
    s = detector();
    s.stages[1].inputs = {"Conv"}; // Bin <-> Conv cycle
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E007", "stages"));
    s = detector();
    s.stages.clear();
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E007", "stages"));
}

TEST(InjectedDefect, Mapping)
{
    spec::DesignSpec s = detector();
    s.mapping.pop_back(); // Classify unmapped
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E008", "mapping"));
    s = detector();
    s.mapping[1].second = "Classifier"; // Binning on a systolic array
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E008", "mapping[1].hw"));
    s = detector();
    s.mapping[1].second = "ActBuf"; // non-Input stage on a memory
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E008", "mapping[1].hw"));
}

TEST(InjectedDefect, AnalogPresence)
{
    spec::DesignSpec s = detector();
    s.analogArrays.clear();
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E009", "analogArrays"));
}

TEST(InjectedDefect, AnalogChain)
{
    spec::DesignSpec s = detector();
    // Voltage-output pixel array feeding an Optical-input component,
    // and no ADC before the digital side: both are E010.
    s.analogArrays[1].component.kind = spec::ComponentKind::Aps4T;
    const std::vector<Diagnostic> diags = analyze(s);
    EXPECT_TRUE(
        hasDiag(diags, "CAMJ-E010", "analogArrays[Adc].component"))
        << dumpDiags(diags);
}

TEST(InjectedDefect, AnalogThroughput)
{
    // Narrowing the ADC's input: a voltage consumer buffers the
    // mismatch (warning), any other domain needs an explicit buffer
    // (error).
    spec::DesignSpec s = detector();
    s.analogArrays[1].inputShape = {1, 40, 1};
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W003",
                        "analogArrays[Adc].inputShape"));

    s = detector();
    s.analogArrays[0].component.kind = spec::ComponentKind::PwmPixel;
    s.analogArrays[1].component.kind =
        spec::ComponentKind::TimeToVoltage;
    s.analogArrays[1].inputShape = {1, 40, 1};
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E011",
                        "analogArrays[Adc].inputShape"));
}

TEST(InjectedDefect, DigitalWiring)
{
    spec::DesignSpec s = detector();
    s.adcOutputMemory.clear();
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E012", "adcOutputMemory"));
    s = detector();
    s.units[0].inputMemories.clear();
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E012",
                        "units[Classifier].inputMemories"));
}

TEST(InjectedDefect, MemoryRanges)
{
    spec::DesignSpec s = detector();
    s.memories[0].nodeNm = 254;
    EXPECT_TRUE(
        hasDiag(analyze(s), "CAMJ-E013", "memories[ActBuf].nodeNm"));
    s = detector();
    s.memories[0].activeFraction = 1.5;
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E013",
                        "memories[ActBuf].activeFraction"));
    s = detector();
    s.memories[0].capacityWords = 0;
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E013",
                        "memories[ActBuf].capacityWords"));
}

TEST(InjectedDefect, ComponentParams)
{
    spec::DesignSpec s = detector();
    s.analogArrays[1].component.adc.bits = 20;
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E014",
                        "analogArrays[Adc].component.adc.bits"));
    s = detector();
    s.analogArrays[0].component.aps.pixelsPerComponent = 0;
    EXPECT_TRUE(hasDiag(
        analyze(s), "CAMJ-E014",
        "analogArrays[PixelArray].component.aps.pixelsPerComponent"));
}

TEST(InjectedDefect, AdcThroughputBound)
{
    // The detector's column ADC has no energy override, so its
    // per-cell rate lower bound is FoM-surveyed: 60 accesses x 3
    // slots x fps. Past 1e12 S/s the survey has no data at all
    // (error); past 1e11 it extrapolates (warning).
    spec::DesignSpec s = detector();
    s.fps = 1e10; // bound 1.8e12 S/s
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E015",
                        "analogArrays[Adc].component"))
        << dumpDiags(analyze(s));
    s.fps = 1e9; // bound 1.8e11 S/s
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W004",
                        "analogArrays[Adc].component"));
}

TEST(InjectedDefect, CommBoundary)
{
    spec::DesignSpec s = detector();
    s.mipi.present = false; // 4 output bytes must leave the package
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-E016", "mipi"));
}

TEST(InjectedDefect, UnitParams)
{
    spec::DesignSpec s = detector();
    s.units[0].systolic.rows = 0;
    EXPECT_TRUE(
        hasDiag(analyze(s), "CAMJ-E017", "units[Classifier].rows"));
    s = detector();
    s.units[0].systolic.clock = 0.0;
    EXPECT_TRUE(
        hasDiag(analyze(s), "CAMJ-E017", "units[Classifier].clock"));
}

TEST(InjectedDefect, DeadComponents)
{
    spec::DesignSpec s = detector();
    spec::MemorySpec spare;
    spare.name = "Spare";
    spare.capacityWords = 1024;
    spare.wordBits = 64;
    spare.nodeNm = 65;
    s.memories.push_back(spare);
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W001", "memories[Spare]"));

    s = detector();
    spec::UnitSpec idle;
    idle.kind = spec::UnitKind::Systolic;
    idle.systolic.name = "Idle";
    idle.systolic.rows = 4;
    idle.systolic.cols = 4;
    idle.inputMemories = {"ActBuf"};
    s.units.push_back(idle);
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W001", "units[Idle]"));
}

TEST(InjectedDefect, SuspiciousMagnitudes)
{
    spec::DesignSpec s = detector();
    s.digitalClock = 5e10;
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W002", "digitalClock"));
    s = detector();
    s.units[0].systolic.energyPerMac = 1e-6;
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-W002",
                        "units[Classifier].energyPerMac"));
}

TEST(InjectedDefect, ResidentInputFootprint)
{
    // Map the Input stage into ActBuf and shrink the buffer below
    // one 320x240x8b frame: residency info plus footprint warning.
    spec::DesignSpec s = detector();
    s.mapping[0].second = "ActBuf";
    s.memories[0].capacityWords = 1024; // 65536 b < 614400 b
    const std::vector<Diagnostic> diags = analyze(s);
    EXPECT_TRUE(hasDiag(diags, "CAMJ-I001", "mapping[0].hw"))
        << dumpDiags(diags);
    EXPECT_TRUE(hasDiag(diags, "CAMJ-W007",
                        "memories[ActBuf].capacityWords"))
        << dumpDiags(diags);
}

TEST(InjectedDefect, UnusedCommInterface)
{
    spec::DesignSpec s = detector();
    s.tsv.present = true; // single-layer design: nothing crosses
    EXPECT_TRUE(hasDiag(analyze(s), "CAMJ-I002", "tsv"));
}

// ----------------------------------------------------------- key lint

TEST(KeyLint, UnknownKeyGetsDidYouMean)
{
    json::Value doc = spec::toJsonValue(detector());
    doc.set("fpss", json::Value(60.0));
    const std::vector<Diagnostic> diags =
        analysis::lintDocumentKeys(doc);
    ASSERT_TRUE(hasDiag(diags, "CAMJ-W005", "fpss"))
        << dumpDiags(diags);
    for (const Diagnostic &d : diags) {
        if (d.code == "CAMJ-W005" && d.path == "fpss")
            EXPECT_EQ(d.hint, "did you mean 'fps'?");
    }
}

TEST(KeyLint, DeprecatedKeyNamesReplacement)
{
    json::Value doc = spec::toJsonValue(detector());
    doc.set("frame_rate", json::Value(60.0));
    const std::vector<Diagnostic> diags =
        analysis::lintDocumentKeys(doc);
    ASSERT_TRUE(hasDiag(diags, "CAMJ-W006", "frame_rate"))
        << dumpDiags(diags);
}

TEST(KeyLint, NestedUnknownKeyCarriesElementPath)
{
    json::Value doc = spec::toJsonValue(detector());
    json::Value &mem =
        doc.find("memories")->mutableArray()[0];
    mem.set("nodeNM", json::Value(65));
    const std::vector<Diagnostic> diags =
        analysis::lintDocumentKeys(doc);
    EXPECT_TRUE(
        hasDiag(diags, "CAMJ-W005", "memories[ActBuf].nodeNM"))
        << dumpDiags(diags);
}

TEST(KeyLint, CleanDocumentHasNoFindings)
{
    const std::vector<Diagnostic> diags =
        analysis::lintDocumentKeys(spec::toJsonValue(detector()));
    EXPECT_TRUE(diags.empty()) << dumpDiags(diags);
}

// ------------------------------------------- lint and simulation agree

/** The Fig. 5 quickstart pipeline (a 2-stage edge unit behind a
 *  line buffer) with @p line_buffer_words of buffer at @p fps. */
spec::DesignSpec
fig5(int64_t line_buffer_words, double fps)
{
    spec::ComponentSpec pixel;
    pixel.kind = spec::ComponentKind::Aps4T;
    pixel.aps.pixelsPerComponent = 4;
    spec::ComponentSpec adc;
    adc.kind = spec::ComponentKind::ColumnAdc;
    return spec::DesignBuilder("fig5")
        .fps(fps)
        .digitalClock(10e6)
        .inputStage("Input", {32, 32, 1})
        .stage({.name = "Binning", .op = StageOp::Binning,
                .inputSize = {32, 32, 1}, .outputSize = {16, 16, 1},
                .kernel = {2, 2, 1}, .stride = {2, 2, 1}},
               {"Input"})
        .stage({.name = "Edge", .op = StageOp::DepthwiseConv2d,
                .inputSize = {16, 16, 1}, .outputSize = {14, 14, 1},
                .kernel = {3, 3, 1}, .stride = {1, 1, 1}},
               {"Binning"})
        .analogArray({.name = "PixelArray", .role = AnalogRole::Sensing,
                      .numComponents = {16, 16, 1},
                      .inputShape = {1, 32, 1},
                      .outputShape = {1, 16, 1},
                      .componentArea = 36e-12, .component = pixel})
        .analogArray({.name = "AdcArray", .role = AnalogRole::Adc,
                      .numComponents = {16, 1, 1},
                      .inputShape = {1, 16, 1},
                      .outputShape = {1, 16, 1},
                      .componentArea = 1e-9, .component = adc})
        .sram("LineBuffer", Layer::Sensor, MemoryKind::LineBuffer,
              line_buffer_words, 8, 65, 1.0)
        .computeUnit({.name = "EdgeUnit", .layer = Layer::Sensor,
                      .inputPixelsPerCycle = {1, 3, 1},
                      .outputPixelsPerCycle = {1, 1, 1},
                      .energyPerCycle = 3e-12, .numStages = 2},
                     {"LineBuffer"})
        .adcOutput("LineBuffer")
        .mipi()
        .map("Input", "PixelArray")
        .map("Binning", "PixelArray")
        .map("Edge", "EdgeUnit")
        .spec();
}

/** The detector with its pixel array swapped for a custom
 *  optical-to-voltage cell chain. */
spec::DesignSpec
customPixelDetector()
{
    spec::DesignSpec s = detector();
    spec::ComponentSpec &c = s.analogArrays[0].component;
    c.kind = spec::ComponentKind::Custom;
    c.custom.name = "Photodiode";
    c.custom.input = SignalDomain::Optical;
    c.custom.output = SignalDomain::Voltage;
    spec::CellSpec cell;
    cell.name = "Sense";
    cell.caps = {{10e-15, 1.0}};
    c.custom.cells = {cell};
    return s;
}

/** One design the linter and the simulator must agree on. */
struct CodeRow
{
    std::string name;
    spec::DesignSpec spec;
    /** The dynamic code simulation must report; empty on static rows,
     *  where it must report one of lint's error codes instead. */
    std::string dynamicCode;
};

std::vector<CodeRow>
codeRows()
{
    std::vector<CodeRow> rows;
    auto add = [&](std::string name, auto edit,
                   std::string dynamic = "") {
        spec::DesignSpec s = detector();
        edit(s);
        rows.push_back({std::move(name), std::move(s),
                        std::move(dynamic)});
    };
    using S = spec::DesignSpec;
    // Every error fixture of the InjectedDefect tests above.
    add("fps", [](S &s) { s.fps = -1.0; });
    add("digitalClock", [](S &s) { s.digitalClock = 0.0; });
    add("name", [](S &s) { s.name.clear(); });
    add("duplicate memory", [](S &s) { s.memories.push_back(s.memories[0]); });
    add("duplicate stage", [](S &s) { s.stages[2].params.name = "Bin"; });
    add("unit input", [](S &s) { s.units[0].inputMemories[0] = "ActBfu"; });
    add("adcOutputMemory", [](S &s) { s.adcOutputMemory = "Nope"; });
    add("mapping hw", [](S &s) { s.mapping[2].second = "Classifierz"; });
    add("arity", [](S &s) { s.stages[1].inputs.push_back("Conv"); });
    add("geometry", [](S &s) { s.stages[1].params.outputSize = {81, 60, 1}; });
    add("edge shape", [](S &s) {
        s.stages[2].params.inputSize = {40, 30, 1};
        s.stages[2].params.outputSize = {38, 28, 8};
    });
    add("self-loop", [](S &s) { s.stages[1].inputs = {"Bin"}; });
    add("cycle", [](S &s) { s.stages[1].inputs = {"Conv"}; });
    add("no stages", [](S &s) { s.stages.clear(); });
    add("unmapped", [](S &s) { s.mapping.pop_back(); });
    add("binning on systolic",
        [](S &s) { s.mapping[1].second = "Classifier"; });
    add("stage on memory", [](S &s) { s.mapping[1].second = "ActBuf"; });
    add("no analog", [](S &s) { s.analogArrays.clear(); });
    add("domain chain", [](S &s) {
        s.analogArrays[1].component.kind = spec::ComponentKind::Aps4T;
    });
    add("unbuffered step-down", [](S &s) {
        s.analogArrays[0].component.kind = spec::ComponentKind::PwmPixel;
        s.analogArrays[1].component.kind =
            spec::ComponentKind::TimeToVoltage;
        s.analogArrays[1].inputShape = {1, 40, 1};
    });
    add("no adc output", [](S &s) { s.adcOutputMemory.clear(); });
    add("no unit input", [](S &s) { s.units[0].inputMemories.clear(); });
    add("nodeNm", [](S &s) { s.memories[0].nodeNm = 254; });
    add("activeFraction", [](S &s) { s.memories[0].activeFraction = 1.5; });
    add("capacityWords", [](S &s) { s.memories[0].capacityWords = 0; });
    add("adc bits", [](S &s) { s.analogArrays[1].component.adc.bits = 20; });
    add("pixelsPerComponent", [](S &s) {
        s.analogArrays[0].component.aps.pixelsPerComponent = 0;
    });
    add("adc throughput", [](S &s) { s.fps = 1e10; });
    add("no mipi", [](S &s) { s.mipi.present = false; });
    add("systolic rows", [](S &s) { s.units[0].systolic.rows = 0; });
    add("systolic clock", [](S &s) { s.units[0].systolic.clock = 0.0; });

    spec::DesignSpec custom = customPixelDetector();
    custom.analogArrays[0].component.custom.name.clear();
    rows.push_back({"custom without name", custom, ""});
    custom = customPixelDetector();
    custom.analogArrays[0].component.custom.cells.clear();
    rows.push_back({"custom without cells", custom, ""});

    // Failures only simulation finds: the frame budget, a deadlock,
    // and the ADC source stalling on a full line buffer.
    add("frame budget", [](S &s) { s.fps = 3000.0; }, "CAMJ-D002");
    spec::DesignSpec edgaze = edgazeSpec(EdgazeVariant::TwoDIn, 65);
    for (spec::MemorySpec &m : edgaze.memories) {
        if (m.name == "DnnBuffer")
            m.capacityWords = 8;
    }
    rows.push_back({"Ed-Gaze deadlock", edgaze, "CAMJ-D001"});
    rows.push_back({"source stall", fig5(4, 25000.0), "CAMJ-D001"});
    return rows;
}

TEST(RuleCodes, LintAndSimulationAgree)
{
    SimulationOptions options;
    options.checkMode = CheckMode::Report;
    const Simulator simulator(options);
    for (const CodeRow &row : codeRows()) {
        SCOPED_TRACE(row.name);
        const std::vector<Diagnostic> diags = analyze(row.spec);
        const SimulationOutcome out = simulator.run(row.spec);
        ASSERT_FALSE(out.feasible);
        EXPECT_NE(out.ruleCode, "");
        EXPECT_NE(out.ruleCode, "CAMJ-D003") << out.error;
        if (!row.dynamicCode.empty()) {
            EXPECT_EQ(out.ruleCode, row.dynamicCode) << out.error;
            EXPECT_FALSE(analysis::hasErrors(diags)) << dumpDiags(diags);
            continue;
        }
        bool linted = false;
        for (const Diagnostic &d : diags) {
            linted = linted || (d.severity == Severity::Error &&
                                d.code == out.ruleCode);
        }
        EXPECT_TRUE(linted) << out.ruleCode << " " << out.error << "\n"
                            << dumpDiags(diags);
    }
}

TEST(RuleCodes, OverflowingEnergyIsDynamicD004)
{
    // Kept out of codeRows(), whose rows seed the LintCorpus: a finite
    // but huge parameter lints without an error, and only evaluation
    // finds that the frame energy overflows.
    spec::DesignSpec s = detector();
    s.mipi.energyPerByte = 1e308;
    const std::vector<Diagnostic> diags = analyze(s);
    EXPECT_FALSE(analysis::hasErrors(diags)) << dumpDiags(diags);
    SimulationOptions options;
    options.checkMode = CheckMode::Report;
    const SimulationOutcome out = Simulator(options).run(s);
    ASSERT_FALSE(out.feasible);
    EXPECT_EQ(out.ruleCode, "CAMJ-D004") << out.error;
}

TEST(RuleCodes, MalformedDocumentsAreOneE018)
{
    const std::string text = spec::toJson(spec::sampleDetectorStudy());
    json::Value misspelt = spec::toJsonValue(detector());
    json::Value &op = misspelt.find("stages")->mutableArray()[1];
    op.set("op", json::Value(std::string("Binnning")));
    spec::SweepDocument bad_path = spec::sampleDetectorStudy();
    bad_path.grid.axes[0].path = "fpz[";

    for (const std::string &doc :
         {text.substr(0, text.size() / 2), misspelt.dump(2),
          spec::toJson(bad_path)}) {
        const analysis::DocumentLint lint = analysis::lintDocument(doc);
        SCOPED_TRACE(lint.rejection);
        EXPECT_FALSE(lint.sweep.has_value());
        ASSERT_EQ(analysis::countSeverity(lint.diagnostics,
                                          Severity::Error),
                  1u)
            << dumpDiags(lint.diagnostics);
        for (const Diagnostic &d : lint.diagnostics) {
            if (d.severity == Severity::Error)
                EXPECT_EQ(d.code, "CAMJ-E018") << d.format();
        }
    }
}

TEST(LintDocument, IntegersOutsideInt64AreOneE018NamingTheNumber)
{
    // A capacity of 1e19 words and a spec version of 1e308 used to
    // read as INT64_MIN and be reported as that value.
    json::Value capacity = spec::toJsonValue(detector());
    for (json::Value &m : capacity.find("memories")->mutableArray()) {
        if (m.getString("name", "") == "ActBuf")
            m.set("capacityWords", json::Value(1e19));
    }
    json::Value version = spec::toJsonValue(detector());
    version.set("camjSpecVersion", json::Value(1e308));
    const std::pair<const json::Value *, const char *> cases[] = {
        {&capacity, "json: number 1e+19 does not fit a 64-bit integer"},
        {&version, "json: number 1e+308 does not fit a 64-bit integer"},
    };
    for (const auto &[doc, text] : cases) {
        const analysis::DocumentLint lint = analysis::lintDocument(*doc);
        EXPECT_FALSE(lint.sweep.has_value());
        ASSERT_EQ(lint.diagnostics.size(), 1u)
            << dumpDiags(lint.diagnostics);
        EXPECT_EQ(lint.diagnostics[0].code, "CAMJ-E018");
        EXPECT_NE(lint.diagnostics[0].message.find(text),
                  std::string::npos)
            << lint.diagnostics[0].message;
    }
}

TEST(LintDocument, Int32FieldsOutsideTheirRangeAreOneE018NamingTheField)
{
    // A 32-bit field used to keep the low 32 bits of what it read:
    // wordBits 2^32 + 64 ran as 64.
    const json::Value golden = json::Value::parse(readFile(
        fs::path(CAMJ_GOLDEN_DIR) / "detector-65nm-30fps.json"));
    const json::Value tooSmall(-2147483649.0);
    auto setIn = [&](const char *list, const char *name, const char *key) {
        json::Value doc = golden;
        for (json::Value &e : doc.find(list)->mutableArray()) {
            if (e.getString("name", "") == name)
                e.set(key, tooSmall);
        }
        return doc;
    };
    const std::pair<json::Value, const char *> cases[] = {
        {setIn("memories", "ActBuf", "wordBits"),
         "memories[ActBuf].wordBits: json: number -2147483649 does not "
         "fit a 32-bit integer"},
        {setIn("stages", "Bin", "bitDepth"),
         "stages[Bin].bitDepth: json: number -2147483649 does not fit a "
         "32-bit integer"},
        {setIn("units", "Classifier", "rows"),
         "units[Classifier].rows: json: number -2147483649 does not fit "
         "a 32-bit integer"},
    };
    for (const auto &[doc, text] : cases) {
        const analysis::DocumentLint lint = analysis::lintDocument(doc);
        EXPECT_FALSE(lint.sweep.has_value());
        ASSERT_EQ(lint.diagnostics.size(), 1u)
            << dumpDiags(lint.diagnostics);
        EXPECT_EQ(lint.diagnostics[0].code, "CAMJ-E018");
        EXPECT_EQ(lint.diagnostics[0].message, std::string("fatal: ") + text);
        try {
            spec::fromJsonValue(doc);
            ADD_FAILURE() << text << " lowered";
        } catch (const ConfigError &e) {
            EXPECT_STREQ(e.code(), "CAMJ-E018");
            EXPECT_EQ(e.message(), std::string(text));
        }
    }
}

TEST(LintDocument, UnparseableDocumentsAreRejectedWithADiagnostic)
{
    const analysis::DocumentLint lint =
        analysis::lintDocument(std::string("{ this is not json"));
    EXPECT_FALSE(lint.sweep.has_value());
    EXPECT_EQ(lint.rejection, "document does not parse");
    ASSERT_EQ(lint.diagnostics.size(), 1u);
    EXPECT_EQ(lint.diagnostics[0].code, "CAMJ-E018");
}

TEST(LintDocument, DeeplyNestedDocumentsAreRejectedWithAParseError)
{
    const analysis::DocumentLint lint = analysis::lintDocument(
        std::string(100000, '[') + std::string(100000, ']'));
    EXPECT_FALSE(lint.sweep.has_value());
    EXPECT_EQ(lint.rejection, "document does not parse");
    ASSERT_EQ(lint.diagnostics.size(), 1u);
    EXPECT_EQ(lint.diagnostics[0].code, "CAMJ-E018");
    EXPECT_NE(lint.diagnostics[0].message.find("nesting deeper than"),
              std::string::npos)
        << lint.diagnostics[0].message;
}

// -------------------------------------------------------- grid analysis

/** The canonical detector study widened with provably infeasible
 *  axis values (one per axis family the grid rules cover). */
spec::SweepDocument
widenedStudy()
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {
        {"rate", "fps",
         {json::Value(30.0), json::Value(960.0), json::Value(-5.0)}},
        {"bufnode", "memories[ActBuf].nodeNm",
         {json::Value(65), json::Value(254)}},
        {"duty", "memories[ActBuf].activeFraction",
         {json::Value(0.5), json::Value(1.5)}},
    };
    return doc;
}

TEST(GridAnalysis, DoomsExactlyTheProvablyInfeasibleValues)
{
    const GridAnalysis result =
        GridAnalyzer().analyze(widenedStudy().source());
    EXPECT_EQ(result.totalPoints(), 12u);
    // fps=-5 dooms 4 points, nodeNm=254 dooms 6, duty=1.5 dooms 6;
    // only the 2 all-good combinations survive.
    EXPECT_EQ(result.prunedPoints(), 10u) << result.summary();
    for (size_t i = 0; i < result.totalPoints(); ++i) {
        if (result.doomed(i))
            EXPECT_FALSE(result.justification(i).empty())
                << "doomed point " << i << " without justification";
    }
}

TEST(GridAnalysis, NeverPrunesAFeasiblePoint)
{
    const spec::SweepDocument doc = widenedStudy();
    const GridAnalysis result = GridAnalyzer().analyze(doc.source());
    spec::GridSpecSource grid = doc.source();
    SimulationOptions options;
    options.checkMode = CheckMode::Report;
    const Simulator sim(options);
    for (size_t i = 0; i < grid.totalPoints(); ++i) {
        if (!result.doomed(i))
            continue;
        const SimulationOutcome out = sim.run(grid.at(i));
        EXPECT_FALSE(out.feasible)
            << "point " << i << " pruned but simulates feasibly:\n"
            << analysis::formatDiagnostics(result.justification(i));
    }
}

TEST(GridAnalysis, PointListModeEvaluatesEachPoint)
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {{"rate", "fps", {}},
                     {"bufnode", "memories[ActBuf].nodeNm", {}}};
    doc.grid.pointList = {
        {json::Value(30.0), json::Value(65)},
        {json::Value(60.0), json::Value(254)},
        {json::Value(-1.0), json::Value(65)},
    };
    const GridAnalysis result = GridAnalyzer().analyze(doc.source());
    EXPECT_EQ(result.totalPoints(), 3u);
    EXPECT_FALSE(result.doomed(0));
    EXPECT_TRUE(result.doomed(1));
    EXPECT_TRUE(result.doomed(2));
    EXPECT_EQ(result.prunedPoints(), 2u);
}

TEST(GridAnalysis, ProbesApplyAxesInDeclarationOrderLikeTheSweep)
{
    // The wildcard axis comes second, so it overwrites the out-of-range
    // 300 nm on every point: nothing is infeasible and nothing may be
    // pruned.
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {
        {"bufnode", "memories[ActBuf].nodeNm", {json::Value(300)}},
        {"node", "memories[*].nodeNm",
         {json::Value(65), json::Value(45)}},
    };
    spec::GridSpecSource grid = doc.source();
    const GridAnalysis result = GridAnalyzer().analyze(grid);
    EXPECT_EQ(result.totalPoints(), 2u);
    EXPECT_EQ(result.prunedPoints(), 0u) << result.summary();
    SimulationOptions options;
    options.checkMode = CheckMode::Report;
    const Simulator sim(options);
    for (size_t i = 0; i < grid.totalPoints(); ++i) {
        const SimulationOutcome out = sim.run(grid.at(i));
        EXPECT_TRUE(out.feasible) << "point " << i << ": " << out.error;
    }
}

// ------------------------------------------------------------ prefilter

TEST(Prefilter, CanonicalStudyPassesThroughUntouched)
{
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    PrefilterSpecSource filtered(doc);
    EXPECT_EQ(filtered.totalPoints(), 108u);
    EXPECT_TRUE(filtered.prunedIndices().empty())
        << filtered.analysis().summary();
    // Identity against the unfiltered grid, point by point.
    spec::GridSpecSource grid = doc.source();
    for (size_t i = 0; i < filtered.totalPoints(); ++i) {
        EXPECT_EQ(filtered.globalIndex(i), i);
        EXPECT_EQ(filtered.at(i).name, grid.at(i).name);
    }
}

TEST(Prefilter, SkipsDoomedPointsAndKeepsGlobalIdentity)
{
    const spec::SweepDocument doc = widenedStudy();
    PrefilterSpecSource filtered(doc);
    EXPECT_EQ(filtered.totalPoints() + filtered.prunedIndices().size(),
              12u);
    EXPECT_EQ(filtered.totalPoints(), 2u);

    spec::GridSpecSource grid = doc.source();
    for (size_t local = 0; local < filtered.totalPoints(); ++local) {
        const size_t global = filtered.globalIndex(local);
        EXPECT_FALSE(filtered.analysis().doomed(global));
        EXPECT_EQ(filtered.at(local).name, grid.at(global).name);
    }
    // Local indices are dense and exhaustive.
    EXPECT_THROW(filtered.at(filtered.totalPoints()), ConfigError);
}

TEST(Prefilter, EveryPrunedPointIsActuallyInfeasible)
{
    const spec::SweepDocument doc = widenedStudy();
    PrefilterSpecSource filtered(doc);
    spec::GridSpecSource grid = doc.source();
    SimulationOptions options;
    options.checkMode = CheckMode::Report;
    const Simulator sim(options);
    for (size_t global : filtered.prunedIndices()) {
        const SimulationOutcome out = sim.run(grid.at(global));
        EXPECT_FALSE(out.feasible)
            << "pruned point " << global << " simulates feasibly";
    }
}

// ------------------------------------------------------------ formatting

TEST(Diagnostic, FormatsLikeACompiler)
{
    const Diagnostic d = analysis::makeError(
        "CAMJ-E003", "units[X].inputMemories[0]", "unknown memory",
        "check the spelling");
    EXPECT_EQ(d.format(),
              "error CAMJ-E003 at units[X].inputMemories[0]: unknown "
              "memory (hint: check the spelling)");
    const Diagnostic bare =
        analysis::makeWarning("CAMJ-W002", "", "odd");
    EXPECT_EQ(bare.format(), "warning CAMJ-W002: odd");
}

// ------------------------------------------------ byte-identical lint

/** splitmix64: the corpus must replay identically on every host. */
struct CorpusRng
{
    uint64_t state;
    uint64_t next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    size_t below(size_t n) { return n == 0 ? 0 : next() % n; }
    bool coin() { return (next() & 1) != 0; }
};

uint64_t
fnv1a(std::string_view bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The named elements of @p doc's @p collection. */
std::vector<json::Value *>
namedElements(json::Value &doc, const char *collection)
{
    std::vector<json::Value *> out;
    json::Value *arr = doc.find(collection);
    if (arr == nullptr || !arr->isArray())
        return out;
    for (json::Value &e : arr->mutableArray()) {
        const json::Value *name = e.isObject() ? e.find("name") : nullptr;
        if (name != nullptr && name->isString())
            out.push_back(&e);
    }
    return out;
}

std::vector<json::Value *>
hardware(json::Value &doc)
{
    std::vector<json::Value *> out;
    for (const char *c : {"analogArrays", "memories", "units"}) {
        for (json::Value *e : namedElements(doc, c))
            out.push_back(e);
    }
    return out;
}

std::string
nameOf(const json::Value &e)
{
    return e.find("name")->asString();
}

void
collectObjectsAndNumbers(json::Value &v, std::vector<json::Value *> &objects,
                         std::vector<json::Value *> &numbers)
{
    if (v.isNumber())
        numbers.push_back(&v);
    if (v.isArray()) {
        for (json::Value &e : v.mutableArray())
            collectObjectsAndNumbers(e, objects, numbers);
    } else if (v.isObject()) {
        objects.push_back(&v);
        for (auto &[key, e] : v.mutableObject())
            collectObjectsAndNumbers(e, objects, numbers);
    }
}

template <class T>
T &
pick(std::vector<T> &items, CorpusRng &rng)
{
    return items[rng.below(items.size())];
}

const char *const kMutations[] = {
    "empty-name",        "duplicate-name",  "renamed-name",
    "dangling-mapping",  "retargeted-mapping", "self-loop",
    "cycle",             "duplicate-edge",  "zero-number",
    "negative-number",   "huge-number",     "layer-swap",
    "dropped-comm",      "unknown-key",     "obsolete-key",
};
constexpr size_t kMutationKinds = std::size(kMutations);

/** Mutation @p kind applied to @p doc at targets @p rng picks; false
 *  (and @p doc untouched) when the document has nothing to target. */
bool
mutate(json::Value &doc, size_t kind, CorpusRng &rng)
{
    std::vector<json::Value *> stages = namedElements(doc, "stages");
    std::vector<json::Value *> hw = hardware(doc);
    std::vector<json::Value *> named = stages;
    named.insert(named.end(), hw.begin(), hw.end());
    std::vector<json::Value *> mapping;
    if (json::Value *m = doc.find("mapping"); m && m->isArray()) {
        for (json::Value &e : m->mutableArray()) {
            if (e.isObject())
                mapping.push_back(&e);
        }
    }
    std::vector<json::Value *> objects;
    std::vector<json::Value *> numbers;
    collectObjectsAndNumbers(doc, objects, numbers);

    switch (kind) {
      case 0: // empty name, of any kind
        if (named.empty())
            return false;
        pick(named, rng)->set("name", json::Value(""));
        return true;
      case 1: { // a name shared with another element of its namespace
        if (named.empty())
            return false;
        const size_t i = rng.below(named.size());
        const bool isStage = i < stages.size();
        const std::vector<json::Value *> &pool = isStage ? stages : hw;
        if (pool.size() < 2)
            return false;
        const size_t self = isStage ? i : i - stages.size();
        const size_t other =
            (self + 1 + rng.below(pool.size() - 1)) % pool.size();
        named[i]->set("name", json::Value(nameOf(*pool[other])));
        return true;
      }
      case 2: { // renamed: every reference to the old name dangles
        if (named.empty())
            return false;
        json::Value *e = pick(named, rng);
        e->set("name", json::Value(nameOf(*e) + "2"));
        return true;
      }
      case 3: // dangling mapping
        if (mapping.empty())
            return false;
        if (rng.coin())
            pick(mapping, rng)->set("stage", json::Value("NoSuchStage"));
        else
            pick(mapping, rng)->set("hw", json::Value("NoSuchHw"));
        return true;
      case 4: // mapping retargeted onto another existing element
        if (mapping.empty() || stages.empty() || hw.empty())
            return false;
        if (rng.coin())
            pick(mapping, rng)->set("hw",
                                    json::Value(nameOf(*pick(hw, rng))));
        else
            pick(mapping, rng)->set(
                "stage", json::Value(nameOf(*pick(stages, rng))));
        return true;
      case 5: { // self-loop
        if (stages.empty())
            return false;
        json::Value *s = pick(stages, rng);
        json::Value *inputs = s->find("inputs");
        if (inputs == nullptr || !inputs->isArray())
            return false;
        if (inputs->mutableArray().empty())
            inputs->push(json::Value(nameOf(*s)));
        else
            pick(inputs->mutableArray(), rng) = json::Value(nameOf(*s));
        return true;
      }
      case 6: { // two-stage cycle: a stage reads one of its consumers
        if (stages.empty())
            return false;
        json::Value *s = pick(stages, rng);
        std::vector<json::Value *> consumers;
        for (json::Value *c : stages) {
            const json::Value *in = c->find("inputs");
            if (in == nullptr || !in->isArray())
                continue;
            for (const json::Value &v : in->asArray()) {
                if (v.isString() && v.asString() == nameOf(*s))
                    consumers.push_back(c);
            }
        }
        json::Value *inputs = s->find("inputs");
        if (consumers.empty() || inputs == nullptr || !inputs->isArray())
            return false;
        const std::string back = nameOf(*pick(consumers, rng));
        if (inputs->mutableArray().empty())
            inputs->push(json::Value(back));
        else
            inputs->mutableArray()[0] = json::Value(back);
        return true;
      }
      case 7: { // duplicate edge
        std::vector<json::Value *> readers;
        for (json::Value *s : stages) {
            const json::Value *in = s->find("inputs");
            if (in != nullptr && in->isArray() && !in->asArray().empty())
                readers.push_back(s);
        }
        if (readers.empty())
            return false;
        json::Value &in = *pick(readers, rng)->find("inputs");
        const json::Value first = in.asArray()[0];
        if (in.asArray().size() > 1 && rng.coin())
            in.mutableArray()[1] = first;
        else
            in.push(first);
        return true;
      }
      case 8: // zero
      case 9: // negative
      case 10: { // huge
        if (numbers.empty())
            return false;
        json::Value *n = pick(numbers, rng);
        const double d = n->asNumber();
        if (kind == 8)
            *n = json::Value(0.0);
        else if (kind == 9)
            *n = json::Value(d == 0.0 ? -1.0 : -d);
        else
            *n = json::Value(d == 0.0 ? 1e6 : d * 1e6);
        return true;
      }
      case 11: { // layer swap
        static const char *const kLayers[] = {
            "sensor", "stacked-compute", "stacked-dram", "off-chip"};
        std::vector<json::Value *> placed;
        for (json::Value *e : hw) {
            const json::Value *l = e->find("layer");
            if (l != nullptr && l->isString())
                placed.push_back(e);
        }
        if (placed.empty())
            return false;
        json::Value *e = pick(placed, rng);
        size_t now = 0;
        while (now < 4 && e->find("layer")->asString() != kLayers[now])
            ++now;
        e->set("layer",
               json::Value(kLayers[(now + 1 + rng.below(3)) % 4]));
        return true;
      }
      case 12: { // dropped mipi or tsv block
        json::Value::Object &top = doc.mutableObject();
        std::vector<size_t> comm;
        for (size_t i = 0; i < top.size(); ++i) {
            if (top[i].first == "mipi" || top[i].first == "tsv")
                comm.push_back(i);
        }
        if (comm.empty())
            return false;
        top.erase(top.begin() +
                  static_cast<std::ptrdiff_t>(pick(comm, rng)));
        return true;
      }
      case 13: { // unknown key, often a near-miss of a real one
        json::Value *o = pick(objects, rng);
        std::string key = "bogusKey";
        if (!o->asObject().empty() && rng.coin()) {
            key = o->asObject()[rng.below(o->asObject().size())].first;
            if (rng.coin() && key.size() > 1)
                key.pop_back();
            else
                key += 's';
        }
        o->set(key, json::Value(1.0));
        return true;
      }
      default: { // obsolete spelling
        static const char *const kObsolete[] = {
            "frame_rate", "frameRate", "clock", "sw_stages",
            "mappings", "opsPerOutputOverride", "bit_depth",
            "node_nm", "capacity", "comparatorEnergyOverride"};
        pick(objects, rng)->set(
            kObsolete[rng.below(std::size(kObsolete))],
            json::Value(1.0));
        return true;
      }
    }
}

/**
 * The lint corpus: the 27 golden studies, the example sweep and every
 * RuleCodes fixture, each followed by 40 seeded single mutations. A
 * mutation with nothing to target becomes an unknown-key insertion.
 */
std::vector<std::pair<std::string, json::Value>>
lintCorpus()
{
    std::vector<std::pair<std::string, json::Value>> bases;
    std::vector<fs::path> goldens;
    for (const auto &entry : fs::directory_iterator(CAMJ_GOLDEN_DIR)) {
        if (entry.path().extension() == ".json" &&
            entry.path().filename() != "energies.json")
            goldens.push_back(entry.path());
    }
    std::sort(goldens.begin(), goldens.end());
    for (const fs::path &p : goldens)
        bases.emplace_back("golden/" + p.stem().string(),
                           json::Value::parse(readFile(p)));
    bases.emplace_back(
        "example/detector_sweep",
        json::Value::parse(readFile(fs::path(CAMJ_EXAMPLES_DIR) /
                                    "detector_sweep.json")));
    for (const CodeRow &row : codeRows()) {
        std::string id = "row/" + row.name;
        std::replace(id.begin(), id.end(), ' ', '-');
        bases.emplace_back(std::move(id), spec::toJsonValue(row.spec));
    }

    constexpr size_t kMutationsPerBase = 40;
    std::vector<std::pair<std::string, json::Value>> corpus;
    for (const auto &[id, base] : bases) {
        corpus.emplace_back(id, base);
        for (size_t m = 0; m < kMutationsPerBase; ++m) {
            CorpusRng rng{fnv1a(id) + m};
            size_t kind = m % kMutationKinds;
            json::Value doc = base;
            if (!mutate(doc, kind, rng)) {
                kind = 13;
                mutate(doc, kind, rng);
            }
            char suffix[64];
            std::snprintf(suffix, sizeof suffix, "/m%02zu:%s", m,
                          kMutations[kind]);
            corpus.emplace_back(id + suffix, std::move(doc));
        }
    }
    return corpus;
}

TEST(LintCorpus, DiagnosticsMatchTheRecordedHashes)
{
    // Each line of lint_hashes.txt is the FNV-1a 64 of one corpus
    // document's formatted diagnostics, so a change of rule order,
    // path, message or hint anywhere in the corpus shows here.
    const SpecAnalyzer analyzer;
    std::vector<std::string> now;
    size_t withFindings = 0;
    for (const auto &[id, doc] : lintCorpus()) {
        const std::string text =
            analysis::formatDiagnostics(analyzer.analyzeDocument(doc));
        withFindings += text.empty() ? 0 : 1;
        char hash[17];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(fnv1a(text)));
        now.push_back(std::string(hash) + " " + id);
    }
    std::vector<std::string> recorded;
    std::istringstream file(
        readFile(fs::path(CAMJ_GOLDEN_DIR) / "lint_hashes.txt"));
    for (std::string line; std::getline(file, line);) {
        if (!line.empty() && line[0] != '#')
            recorded.push_back(line);
    }
    ASSERT_EQ(now.size(), recorded.size());
    size_t differing = 0;
    for (size_t i = 0; i < now.size(); ++i) {
        if (now[i] == recorded[i])
            continue;
        if (++differing <= 10)
            ADD_FAILURE() << "recorded " << recorded[i] << "\n     now "
                          << now[i];
    }
    EXPECT_EQ(differing, 0u) << "of " << now.size() << " documents";
    // The mutations must reach the rules: most documents have findings.
    EXPECT_GT(withFindings, now.size() / 2);
}

// ------------------------------------------------------ lowering corpus

/** One step from a JSON value to a child: a member or an element. */
struct Step
{
    std::string key;
    size_t index = 0;
};

/** The route to every leaf (a non-container value) under @p v. */
void
collectLeaves(const json::Value &v, std::vector<Step> &route,
              std::vector<std::vector<Step>> &out)
{
    if (v.isObject()) {
        for (const auto &[key, child] : v.asObject()) {
            route.push_back({key, 0});
            collectLeaves(child, route, out);
            route.pop_back();
        }
    } else if (v.isArray()) {
        for (size_t i = 0; i < v.asArray().size(); ++i) {
            route.push_back({"", i});
            collectLeaves(v.asArray()[i], route, out);
            route.pop_back();
        }
    } else {
        out.push_back(route);
    }
}

json::Value &
follow(json::Value &doc, const std::vector<Step> &route)
{
    json::Value *v = &doc;
    for (const Step &step : route)
        v = step.key.empty() ? &v->mutableArray()[step.index]
                             : v->find(step.key);
    return *v;
}

/** The path a lowering error names for the leaf at @p route: the
 *  field the leaf sits in (a shape or a string list holds elements),
 *  each element labelled by its non-empty string name, else its
 *  index. */
std::string
fieldPath(const json::Value &doc, const std::vector<Step> &route)
{
    size_t end = route.size();
    while (end > 0 && route[end - 1].key.empty())
        --end;
    std::string out;
    const json::Value *v = &doc;
    for (size_t i = 0; i < end; ++i) {
        if (route[i].key.empty()) {
            v = &v->asArray()[route[i].index];
            const json::Value *name = v->find("name");
            out += '[';
            out += name != nullptr && name->isString() &&
                           !name->asString().empty()
                       ? name->asString()
                       : std::to_string(route[i].index);
            out += ']';
        } else {
            if (!out.empty())
                out += '.';
            out += route[i].key;
            v = v->find(route[i].key);
        }
    }
    return out;
}

TEST(LoweringCorpus, TypeMutationsLowerOrEndInOneE018NamingTheField)
{
    // Seeded leaf mutations of the 27 goldens and the example: each
    // leaf becomes a value of another JSON type, and an integer leaf
    // also 2^31 or -2^31 - 1. Lowering either succeeds or throws one
    // CAMJ-E018 whose text names the field the leaf sits in.
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(CAMJ_GOLDEN_DIR)) {
        if (entry.path().extension() == ".json" &&
            entry.path().filename() != "energies.json")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    files.push_back(fs::path(CAMJ_EXAMPLES_DIR) / "detector_sweep.json");
    ASSERT_EQ(files.size(), 28u);

    constexpr size_t kMutationsPerDocument = 60;
    size_t refused = 0, outOfRange = 0, lowered = 0;
    for (const fs::path &file : files) {
        const json::Value base = json::Value::parse(readFile(file));
        std::vector<std::vector<Step>> leaves;
        std::vector<Step> route;
        collectLeaves(base, route, leaves);
        CorpusRng rng{fnv1a(file.filename().string())};
        for (size_t m = 0; m < kMutationsPerDocument; ++m) {
            const std::vector<Step> &leaf = leaves[rng.below(leaves.size())];
            json::Value doc = base;
            json::Value &slot = follow(doc, leaf);
            std::vector<json::Value> other;
            if (!slot.isNumber())
                other.emplace_back(0.5);
            if (!slot.isString())
                other.emplace_back("text");
            if (!slot.isBool())
                other.emplace_back(true);
            if (!slot.isNull())
                other.emplace_back();
            other.push_back(json::Value::makeArray());
            other.push_back(json::Value::makeObject());
            if (slot.isNumber() &&
                slot.asNumber() == std::floor(slot.asNumber())) {
                other.emplace_back(2147483648.0);
                other.emplace_back(-2147483649.0);
            }
            slot = other[rng.below(other.size())];
            const std::string path = fieldPath(doc, leaf);
            SCOPED_TRACE(file.filename().string() + " " + path + " = " +
                         slot.dump(0));
            try {
                spec::fromJsonValue(doc);
                ++lowered;
            } catch (const ConfigError &e) {
                ++refused;
                EXPECT_STREQ(e.code(), "CAMJ-E018") << e.what();
                EXPECT_NE(std::string(e.what()).find(path),
                          std::string::npos)
                    << e.what();
                if (std::string(e.what()).find("32-bit") !=
                    std::string::npos)
                    ++outOfRange;
            }
        }
    }
    // The mutations reach the reader, its 32-bit range included.
    EXPECT_GT(refused, lowered);
    EXPECT_GT(outOfRange, 0u);
}

/** The route to every container (an object or an array) under @p v,
 *  @p v itself excluded. */
void
collectContainers(const json::Value &v, std::vector<Step> &route,
                  std::vector<std::vector<Step>> &out)
{
    auto visit = [&](const json::Value &child) {
        if (child.isObject() || child.isArray()) {
            out.push_back(route);
            collectContainers(child, route, out);
        }
    };
    if (v.isObject()) {
        for (const auto &[key, child] : v.asObject()) {
            route.push_back({key, 0});
            visit(child);
            route.pop_back();
        }
    } else if (v.isArray()) {
        for (size_t i = 0; i < v.asArray().size(); ++i) {
            route.push_back({"", i});
            visit(v.asArray()[i]);
            route.pop_back();
        }
    }
}

TEST(LoweringCorpus, ContainerMutationsEndInOneE018NamingTheField)
{
    // Seeded container mutations of the 27 goldens and the example:
    // an object or an array becomes a number, a string, a bool or
    // null. Every container a spec member holds is an object, a list
    // of objects, a shape or a string list, so lowering throws one
    // CAMJ-E018 whose text names the field or element ("mipi",
    // "memories[0]"); only the example's sweepGrid block, which
    // fromJsonValue does not read, lowers.
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(CAMJ_GOLDEN_DIR)) {
        if (entry.path().extension() == ".json" &&
            entry.path().filename() != "energies.json")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    files.push_back(fs::path(CAMJ_EXAMPLES_DIR) / "detector_sweep.json");
    ASSERT_EQ(files.size(), 28u);

    constexpr size_t kMutationsPerDocument = 40;
    size_t refused = 0, objects = 0;
    for (const fs::path &file : files) {
        const json::Value base = json::Value::parse(readFile(file));
        std::vector<std::vector<Step>> containers;
        std::vector<Step> route;
        collectContainers(base, route, containers);
        CorpusRng rng{fnv1a("containers/" + file.filename().string())};
        for (size_t m = 0; m < kMutationsPerDocument; ++m) {
            const std::vector<Step> &at =
                containers[rng.below(containers.size())];
            json::Value doc = base;
            json::Value &slot = follow(doc, at);
            const bool was_object = slot.isObject();
            const json::Value scalars[] = {json::Value(0.5),
                                           json::Value("text"),
                                           json::Value(true),
                                           json::Value()};
            slot = scalars[rng.below(std::size(scalars))];
            // The element itself when the container was one, else the
            // field holding it.
            std::string path = fieldPath(doc, at);
            if (at.back().key.empty())
                path += '[' + std::to_string(at.back().index) + ']';
            SCOPED_TRACE(file.filename().string() + " " + path + " = " +
                         slot.dump(0));
            if (at.front().key == "sweepGrid") {
                EXPECT_NO_THROW(spec::fromJsonValue(doc));
                continue;
            }
            try {
                spec::fromJsonValue(doc);
                ADD_FAILURE() << "lowered a scalar in place of a container";
            } catch (const ConfigError &e) {
                ++refused;
                objects += was_object;
                EXPECT_STREQ(e.code(), "CAMJ-E018") << e.what();
                EXPECT_NE(std::string(e.what()).find(path),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    // Objects as well as arrays were replaced.
    EXPECT_GT(objects, 0u);
    EXPECT_GT(refused, objects);
}

} // namespace
} // namespace camj

/**
 * @file
 * The golden-spec regression harness. Every paper study (all Rhythmic
 * and Ed-Gaze variants, the nine validation chips, the sample
 * detectors) has a checked-in canonical JSON document under
 * tests/golden/ plus pinned per-category energy numbers in
 * tests/golden/energies.json. This suite
 *
 *   (a) regenerates each spec from its generator and byte-compares it
 *       against the golden file (with a readable first-difference),
 *   (b) loads each golden file and asserts the simulated EnergyReport
 *       matches the pinned per-category energies to 1e-9 relative
 *       tolerance, and
 *   (c) round-trips load -> save -> load -> save bit-exactly, and
 *   (d) evaluates each golden document as a one-point sweep with every
 *       member the serializer drops injected, and requires the JSONL
 *       bytes of the untouched document,
 *
 * so any refactor of spec/, analog/, digital/, or memmodel/ that
 * silently shifts a paper number fails CI with a readable diff.
 *
 * The binary has its own main(): `golden_test --regen` rewrites the
 * golden fixtures from the current model (also exposed as the
 * `regen_goldens` CMake target). See tests/golden/README.md.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/report.h"
#include "explore/sink.h"
#include "explore/sweep.h"
#include "spec/grid.h"
#include "spec/json.h"
#include "spec/shard.h"
#include "study_fixture.h"
#include "usecases/edgaze.h"
#include "usecases/rhythmic.h"
#include "validation/chips.h"

#ifndef CAMJ_GOLDEN_DIR
#define CAMJ_GOLDEN_DIR "tests/golden"
#endif

namespace camj
{
namespace
{

std::string
goldenDir()
{
    return CAMJ_GOLDEN_DIR;
}

std::string
goldenSpecPath(const std::string &key)
{
    return goldenDir() + "/" + key + ".json";
}

std::string
energiesPath()
{
    return goldenDir() + "/energies.json";
}

using testfix::studies;

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/**
 * Human-readable description of the first differing line of two
 * documents — the "readable diff" a failing golden check prints.
 */
std::string
firstDifference(const std::string &golden, const std::string &fresh)
{
    std::istringstream a(golden), b(fresh);
    std::string la, lb;
    int line = 0;
    while (true) {
        ++line;
        const bool ga = static_cast<bool>(std::getline(a, la));
        const bool gb = static_cast<bool>(std::getline(b, lb));
        if (!ga && !gb)
            return "documents differ only in trailing bytes";
        if (la != lb || ga != gb) {
            std::ostringstream out;
            out << "first difference at line " << line << ":\n"
                << "  golden: " << (ga ? la : "<end of file>") << "\n"
                << "  fresh:  " << (gb ? lb : "<end of file>");
            return out.str();
        }
    }
}

/** Pinned per-category energies, loaded once from energies.json. */
const json::Value &
pinnedEnergies()
{
    static const json::Value doc = [] {
        std::string text;
        if (!readFile(energiesPath(), text))
            return json::Value(); // Null; tests report the miss.
        return json::Value::parse(text);
    }();
    return doc;
}

// ------------------------------------------------------- test fixture

class GoldenStudy : public ::testing::TestWithParam<std::string>
{
  protected:
    const PaperStudy &study() const
    {
        return testfix::studyByKey(GetParam());
    }
};

// (a) Regenerate the spec and byte-compare against the golden file.
TEST_P(GoldenStudy, SpecMatchesGoldenByteExactly)
{
    const PaperStudy &s = study();
    std::string golden;
    ASSERT_TRUE(readFile(goldenSpecPath(s.key), golden))
        << "missing golden file " << goldenSpecPath(s.key)
        << " — run `cmake --build build --target regen_goldens`";
    const std::string fresh = spec::toJson(s.spec);
    EXPECT_EQ(golden, fresh)
        << "regenerated spec for " << s.key
        << " drifted from its golden file.\n"
        << firstDifference(golden, fresh)
        << "\nIf the change is intentional, run `cmake --build build "
           "--target regen_goldens` and commit the diff.";
}

// (b) Load the golden file and pin the simulated per-category
//     energies to 1e-9 relative tolerance.
TEST_P(GoldenStudy, SimulatedEnergiesMatchPinnedValues)
{
    const PaperStudy &s = study();
    ASSERT_FALSE(pinnedEnergies().isNull())
        << "missing " << energiesPath()
        << " — run `cmake --build build --target regen_goldens`";
    const json::Value *pinned = pinnedEnergies().find(s.key);
    ASSERT_NE(pinned, nullptr)
        << "no pinned energies for " << s.key
        << " — run `cmake --build build --target regen_goldens`";

    // Simulate from the GOLDEN document, not the generator: this is
    // what locks the full load -> materialize -> simulate pipeline.
    std::string golden;
    ASSERT_TRUE(readFile(goldenSpecPath(s.key), golden));
    EnergyReport r = spec::fromJson(golden).materialize().simulate();

    auto expectNear = [&](const char *label, Energy got) {
        const double want = pinned->at(label).asNumber();
        if (want == 0.0) {
            EXPECT_EQ(got, 0.0) << s.key << " " << label;
        } else {
            EXPECT_LE(std::fabs(got - want), 1e-9 * std::fabs(want))
                << s.key << " " << label << ": pinned " << want
                << " J, simulated " << got << " J";
        }
    };
    for (EnergyCategory cat : allEnergyCategories())
        expectNear(energyCategoryName(cat), r.category(cat));
    expectNear("total", r.total());
}

// (c) save -> load -> save is bit-exact on the golden document.
TEST_P(GoldenStudy, GoldenFileRoundTripsBitExactly)
{
    const PaperStudy &s = study();
    std::string golden;
    ASSERT_TRUE(readFile(goldenSpecPath(s.key), golden));
    const std::string once = spec::toJson(spec::fromJson(golden));
    const std::string twice = spec::toJson(spec::fromJson(once));
    EXPECT_EQ(golden, once) << firstDifference(golden, once);
    EXPECT_EQ(once, twice) << firstDifference(once, twice);
}

// (d) A document without "sweepGrid" is evaluated as parsed, not in
//     its canonical form (GridSpecSource hands back the parsed spec).
//     That is sound only while evaluation never reads a member the
//     serializer drops, which this pins: every such member is injected
//     with a value evaluation would notice, and the one-point sweep
//     must write the bytes of the untouched document.

/** How many dropped members injectDroppedMembers added, by kind. */
struct Injected
{
    int inputSizes = 0;
    int componentMembers = 0;
    int cellMembers = 0;
    int memoryMembers = 0;
    int outputBytes = 0;
};

/** Set @p key on @p obj unless present; true when it was added. */
bool
injectMember(json::Value &obj, const char *key, json::Value value)
{
    if (obj.has(key))
        return false;
    obj.set(key, std::move(value));
    return true;
}

/**
 * Add to a canonical spec document every member toJsonValue leaves
 * out: an Input stage's inputSize, the component parameter blocks of
 * other kinds, caps/bias/bits/energyOverride on a cell of another
 * class, explicit-model fields on a modelled memory and nodeNm on an
 * explicit one, and a negative pipelineOutputBytes.
 */
Injected
injectDroppedMembers(json::Value &doc)
{
    using json::Value;
    Injected n;
    for (Value &stage : doc.find("stages")->mutableArray()) {
        if (stage.at("op").asString() == "Input")
            n.inputSizes += injectMember(stage, "inputSize",
                                         Value::parse("[3, 5, 7]"));
    }
    const Value blocks = Value::parse(R"({
        "aps": {"photodiodeCap": 9e-15, "vdda": 3.3,
                "pixelsPerComponent": 4},
        "adc": {"bits": 13, "energyPerConversionOverride": 1e-9},
        "switchedCap": {"unitCap": 1e-13, "numCaps": 9, "bits": 6},
        "analogMemory": {"storageCap": 1e-12, "readsPerValue": 3},
        "converter": {"cap": 2e-12, "bits": 11},
        "custom": {"name": "stray", "inputDomain": "voltage",
                   "outputDomain": "voltage",
                   "cells": [{"class": "dynamic", "name": "c",
                              "caps": [{"capacitance": 1e-12,
                                        "swing": 1.0}]}]},
        "maxInputs": 7, "energyOverride": 3e-12, "loadCap": 1e-12,
        "vdda": 1.1})");
    const Value cellMembers = Value::parse(R"({
        "caps": [{"capacitance": 5e-13, "swing": 0.7}],
        "bias": {"loadCapacitance": 1e-12, "vdda": 2.0, "gain": 3},
        "bits": 9, "energyOverride": 4e-12})");
    for (Value &array : doc.find("analogArrays")->mutableArray()) {
        Value &component = *array.find("component");
        for (const auto &[key, value] : blocks.asObject())
            n.componentMembers +=
                injectMember(component, key.c_str(), value);
        Value *custom = component.find("custom");
        if (custom == nullptr || custom->find("cells") == nullptr)
            continue;
        for (Value &cell : custom->find("cells")->mutableArray()) {
            for (const auto &[key, value] : cellMembers.asObject())
                n.cellMembers += injectMember(cell, key.c_str(), value);
        }
    }
    const Value explicitMembers = Value::parse(R"({
        "readEnergyPerWord": 1e-12, "writeEnergyPerWord": 2e-12,
        "leakagePower": 1e-6, "readPorts": 3, "writePorts": 2,
        "area": 1e-8})");
    for (Value &memory : doc.find("memories")->mutableArray()) {
        if (memory.at("model").asString() == "explicit") {
            n.memoryMembers +=
                injectMember(memory, "nodeNm", Value(22));
        } else {
            for (const auto &[key, value] : explicitMembers.asObject())
                n.memoryMembers +=
                    injectMember(memory, key.c_str(), value);
        }
    }
    n.outputBytes +=
        injectMember(doc, "pipelineOutputBytes", Value(-5));
    return n;
}

/** The bytes `camj_sweep run` writes for a one-point document. */
std::string
gridlessJsonl(const std::string &text)
{
    const spec::SweepDocument doc = spec::sweepDocumentFromJson(text);
    EXPECT_TRUE(doc.grid.axes.empty());
    spec::GridSpecSource source = doc.source();
    std::ostringstream out;
    JsonlSink lines(out);
    InOrderSink ordered(lines);
    SweepEngine(SweepOptions{.threads = 1}).runStream(source, ordered);
    return out.str();
}

/** Inject the dropped members into @p canonical and require the
 *  injected document to keep its canonical form and its bytes. */
Injected
expectDroppedMembersUnread(const std::string &canonical)
{
    json::Value doc = json::Value::parse(canonical);
    const Injected n = injectDroppedMembers(doc);
    const std::string injected = doc.dump(2) + "\n";
    EXPECT_NE(injected, canonical);
    // Only members the serializer drops were added.
    EXPECT_EQ(spec::toJson(spec::fromJson(injected)), canonical)
        << firstDifference(canonical,
                           spec::toJson(spec::fromJson(injected)));
    const std::string want = gridlessJsonl(canonical);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(gridlessJsonl(injected), want)
        << firstDifference(want, gridlessJsonl(injected));
    return n;
}

TEST_P(GoldenStudy, GridlessDocumentEvaluatesLikeItsCanonicalForm)
{
    std::string golden;
    ASSERT_TRUE(readFile(goldenSpecPath(study().key), golden));
    EXPECT_GT(expectDroppedMembersUnread(golden).componentMembers, 0);
}

INSTANTIATE_TEST_SUITE_P(Studies, GoldenStudy,
                         ::testing::ValuesIn(testfix::studyKeys()),
                         testfix::paramName);

// ------------------------------------------------- registry invariants

// The golden corpus has no explicit-model memory; this variant of the
// sample detector gives one, so nodeNm is injected where it is dropped
// too. Every kind of dropped member must be exercised somewhere.
TEST(GoldenGridless, EveryDroppedMemberKindIsExercised)
{
    std::string golden;
    ASSERT_TRUE(readFile(goldenSpecPath("detector-65nm-30fps"), golden));
    spec::DesignSpec s = spec::fromJson(golden);
    ASSERT_FALSE(s.memories.empty());
    spec::MemorySpec &m = s.memories.front();
    m.model = spec::MemoryModel::Explicit;
    m.readEnergyPerWord = 2e-12;
    m.writeEnergyPerWord = 3e-12;
    m.leakagePower = 1e-7;
    m.area = 1e-9;
    const Injected variant = expectDroppedMembersUnread(spec::toJson(s));
    EXPECT_GT(variant.memoryMembers, 0);

    Injected total;
    for (const PaperStudy &study : testfix::studies()) {
        ASSERT_TRUE(readFile(goldenSpecPath(study.key), golden));
        json::Value doc = json::Value::parse(golden);
        const Injected n = injectDroppedMembers(doc);
        total.inputSizes += n.inputSizes;
        total.componentMembers += n.componentMembers;
        total.cellMembers += n.cellMembers;
        total.memoryMembers += n.memoryMembers;
        total.outputBytes += n.outputBytes;
    }
    EXPECT_GT(total.inputSizes, 0);
    EXPECT_GT(total.componentMembers, 0);
    EXPECT_GT(total.cellMembers, 0);
    EXPECT_GT(total.memoryMembers, 0);
    EXPECT_GT(total.outputBytes, 0);
}

TEST(GoldenRegistry, CoversEveryPaperStudy)
{
    // 6 Rhythmic + 10 Ed-Gaze + 9 chips + 2 samples.
    EXPECT_EQ(studies().size(), 27u);

    std::set<std::string> keys;
    for (const PaperStudy &s : studies()) {
        EXPECT_TRUE(keys.insert(s.key).second)
            << "duplicate study key " << s.key;
        EXPECT_EQ(s.key, s.spec.name);
    }
    EXPECT_TRUE(keys.count("rhythmic-2D-In-130nm"));
    EXPECT_TRUE(keys.count("edgaze-2D-In-Mixed-65nm"));
    EXPECT_TRUE(keys.count("edgaze-3D-In-STT-130nm"));
    EXPECT_TRUE(keys.count("isscc21-imx500"));
    EXPECT_TRUE(keys.count("tcas22-senputing"));
}

TEST(GoldenRegistry, NoStrayGoldenFixtures)
{
    // energies.json keys exactly match the registry (a deleted study
    // must also drop its pinned numbers).
    ASSERT_FALSE(pinnedEnergies().isNull());
    const auto &obj = pinnedEnergies().asObject();
    EXPECT_EQ(obj.size(), studies().size());
    for (const auto &[key, value] : obj) {
        (void)value;
        bool known = false;
        for (const PaperStudy &s : studies())
            known |= s.key == key;
        EXPECT_TRUE(known) << "energies.json pins unknown study '"
                           << key << "'";
    }

    // ... and every spec fixture on disk belongs to a live study, so
    // deleting a study cannot leave an orphaned "canonical" document.
    namespace fs = std::filesystem;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(goldenDir())) {
        if (entry.path().extension() != ".json")
            continue;
        const std::string stem = entry.path().stem().string();
        if (stem == "energies")
            continue;
        bool known = false;
        for (const PaperStudy &s : studies())
            known |= s.key == stem;
        EXPECT_TRUE(known)
            << "stray golden fixture " << entry.path()
            << " has no study in allPaperStudies() — delete it (or "
               "re-add the study)";
    }
}

// ------------------------------------------------ pinned JSONL bytes

/** The JSONL `camj_sweep run` writes for the document at @p path: one
 *  shard, through runShard on @p threads workers. */
std::string
runShardJsonl(const std::string &path, int threads)
{
    std::string text;
    EXPECT_TRUE(readFile(path, text)) << path;
    const json::Value doc = json::Value::parse(text);
    const spec::SweepDocument sweep = spec::sweepDocumentFromJson(doc);
    const spec::GridSpecSource grid(sweep.base, sweep.grid);
    std::ostringstream out;
    JsonlSink lines(out);
    runShard(grid, spec::documentShard(doc, grid.totalPoints()), threads,
             SimulationOptions{}, lines);
    return out.str();
}

TEST(JsonlHashes, RunShardWritesThePinnedBytes)
{
    // Each line of jsonl_hashes.txt is the FNV-1a 64 and size of the
    // bytes one document's run wrote when the file was made: an
    // oracle outside the writer and the point path, so a drift in a
    // routine the tree renderer and json::Writer share still shows.
    namespace fs = std::filesystem;
    const fs::path root = fs::path(goldenDir()).parent_path().parent_path();
    std::string table;
    ASSERT_TRUE(readFile(goldenDir() + "/jsonl_hashes.txt", table));
    std::istringstream rows(table);
    std::string row;
    size_t documents = 0;
    while (std::getline(rows, row)) {
        if (row.empty() || row[0] == '#')
            continue;
        std::istringstream fields(row);
        std::string hash, path;
        size_t bytes = 0;
        ASSERT_TRUE(fields >> hash >> bytes >> path) << row;
        ++documents;
        for (const int threads : {1, 4}) {
            const std::string jsonl =
                runShardJsonl((root / path).string(), threads);
            char got[17];
            std::snprintf(got, sizeof got, "%016llx",
                          static_cast<unsigned long long>(json::hashBytes(
                              json::kHashSeed, jsonl.data(),
                              jsonl.size())));
            EXPECT_EQ(got, hash) << path << " at --threads " << threads;
            EXPECT_EQ(jsonl.size(), bytes)
                << path << " at --threads " << threads;
        }
    }
    // The example sweep and every golden study.
    EXPECT_EQ(documents, studies().size() + 1);
}

// ------------------------------- negative diagnostics (per study)
//
// A broken reference inside a study spec must fail validation with a
// message that names the offending spec field, the bad value, and
// the registered alternatives.

std::string
validationErrorOf(const spec::DesignSpec &broken)
{
    try {
        broken.validate();
    } catch (const ConfigError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected " << broken.name
                  << " to fail validation";
    return "";
}

TEST(GoldenDiagnostics, RhythmicNamesBadAdcOutputField)
{
    spec::DesignSpec s = rhythmicSpec(SensorVariant::TwoDIn, 130);
    s.adcOutputMemory = "NoSuchFifo";
    const std::string err = validationErrorOf(s);
    EXPECT_NE(err.find("adcOutputMemory"), std::string::npos) << err;
    EXPECT_NE(err.find("NoSuchFifo"), std::string::npos) << err;
    EXPECT_NE(err.find("PixFifo"), std::string::npos)
        << "error should list registered memories: " << err;
}

TEST(GoldenDiagnostics, EdgazeNamesBadUnitWiringField)
{
    for (EdgazeVariant v : {EdgazeVariant::TwoDOff,
                            EdgazeVariant::TwoDIn,
                            EdgazeVariant::ThreeDIn,
                            EdgazeVariant::ThreeDInStt}) {
        spec::DesignSpec s = edgazeSpec(v, 65);
        ASSERT_FALSE(s.units.empty());
        ASSERT_FALSE(s.units.front().inputMemories.empty());
        s.units.front().inputMemories[0] = "GhostBuffer";
        const std::string err = validationErrorOf(s);
        EXPECT_NE(err.find("inputMemories[0]"), std::string::npos)
            << edgazeVariantName(v) << ": " << err;
        EXPECT_NE(err.find(s.units.front().name()), std::string::npos)
            << edgazeVariantName(v) << ": " << err;
        EXPECT_NE(err.find("GhostBuffer"), std::string::npos)
            << edgazeVariantName(v) << ": " << err;
    }
}

TEST(GoldenDiagnostics, EdgazeMixedNamesBadMappingField)
{
    spec::DesignSpec s = edgazeSpec(EdgazeVariant::TwoDInMixed, 65);
    ASSERT_FALSE(s.mapping.empty());
    s.mapping.front().second = "GhostArray";
    const std::string err = validationErrorOf(s);
    EXPECT_NE(err.find("mapping"), std::string::npos) << err;
    EXPECT_NE(err.find(s.mapping.front().first), std::string::npos)
        << err;
    EXPECT_NE(err.find("GhostArray"), std::string::npos) << err;
}

TEST(GoldenDiagnostics, EveryChipNamesBadMappingField)
{
    for (const ChipSpec &chip : allChipSpecs()) {
        spec::DesignSpec s = chip.design;
        ASSERT_FALSE(s.mapping.empty()) << chip.id;
        s.mapping.back().second = "GhostHw";
        const std::string err = validationErrorOf(s);
        EXPECT_NE(err.find("mapping"), std::string::npos)
            << chip.id << ": " << err;
        EXPECT_NE(err.find(s.mapping.back().first), std::string::npos)
            << chip.id << ": " << err;
        EXPECT_NE(err.find("GhostHw"), std::string::npos)
            << chip.id << ": " << err;
    }
}

TEST(GoldenDiagnostics, CustomCapNodeKeysAreRequired)
{
    // A misspelled/absent cap-node key must be a parse error, not a
    // silent 0 F / 0 V node that zeroes the cell's energy.
    const std::string good =
        spec::toJson(edgazeSpec(EdgazeVariant::TwoDInMixed, 65));
    ASSERT_NE(good.find("\"capacitance\""), std::string::npos);

    std::string bad = good;
    bad.replace(bad.find("\"capacitance\""), 13, "\"cap\"");
    EXPECT_THROW(spec::fromJson(bad), ConfigError);

    bad = good;
    bad.replace(bad.find("\"swing\""), 7, "\"vswing\"");
    EXPECT_THROW(spec::fromJson(bad), ConfigError);
}

TEST(GoldenDiagnostics, RhythmicSttStaysRejected)
{
    EXPECT_THROW(rhythmicSpec(SensorVariant::ThreeDInStt, 130),
                 ConfigError);
}

// ------------------------------------------------------ regeneration

/** Rewrite every golden fixture from the current model. */
bool
regenGoldens()
{
    setLoggingEnabled(false);
    json::Value energies = json::Value::makeObject();
    for (const PaperStudy &s : studies()) {
        spec::saveSpecFile(s.spec, goldenSpecPath(s.key));

        EnergyReport r = s.spec.materialize().simulate();
        json::Value e = json::Value::makeObject();
        for (EnergyCategory cat : allEnergyCategories())
            e.set(energyCategoryName(cat),
                  json::Value(r.category(cat)));
        e.set("total", json::Value(r.total()));
        energies.set(s.key, std::move(e));
        std::printf("regenerated %s\n", goldenSpecPath(s.key).c_str());
    }
    std::ofstream out(energiesPath(), std::ios::binary);
    out << energies.dump(2) << "\n";
    if (!out) {
        std::fprintf(stderr, "error: failed to write %s\n",
                     energiesPath().c_str());
        return false;
    }
    std::printf("regenerated %s (%zu studies)\n",
                energiesPath().c_str(), studies().size());
    return true;
}

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

} // namespace
} // namespace camj

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--regen")
            return camj::regenGoldens() ? 0 : 1;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}

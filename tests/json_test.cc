/**
 * @file
 * Pins the json::Value structural-comparison contract the caches are
 * built on: equality must agree with the deterministic writer
 * (a == b exactly when a.dump(0) == b.dump(0), for every value the
 * writer accepts), hashes must be a pure function of that same
 * structure, and move construction must not change round-trip bytes.
 * The corpus is the checked-in golden spec documents plus
 * deterministically mutated variants and hand-picked number edges
 * (-0.0, NaN, integer-formatted doubles). The parser itself is pinned
 * too: every number token reads to the bits strtod gives, malformed
 * and out-of-range numbers keep their error texts, and nesting past
 * the limit is an error instead of a stack overflow. The writer
 * prints every number with the bytes printf's %lld / %.17g give.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "spec/json.h"

namespace camj
{
namespace
{

namespace fs = std::filesystem;
using json::Value;

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
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The golden spec documents (every .json fixture except the
 *  expected-energy table). */
std::vector<fs::path>
goldenDocs()
{
    std::vector<fs::path> docs;
    for (const auto &entry : fs::directory_iterator(CAMJ_GOLDEN_DIR)) {
        if (entry.path().extension() != ".json" ||
            entry.path().filename() == "energies.json")
            continue;
        docs.push_back(entry.path());
    }
    std::sort(docs.begin(), docs.end());
    return docs;
}

/** Deterministic PRNG (xorshift64) — the suite must not depend on
 *  wall-clock seeding, and the mutations must replay identically. */
struct Rng
{
    uint64_t state;
    uint64_t next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
    size_t below(size_t n) { return n == 0 ? 0 : next() % n; }
};

/** Collect every node of the tree (including the root). */
void
collectNodes(Value &v, std::vector<Value *> &out)
{
    out.push_back(&v);
    if (v.isArray()) {
        for (Value &e : v.mutableArray())
            collectNodes(e, out);
    } else if (v.isObject()) {
        for (auto &[k, e] : v.mutableObject())
            collectNodes(e, out);
    }
}

/** Mutate one pseudo-randomly chosen node in place. Some mutations
 *  deliberately produce a STRUCTURALLY EQUAL value (negating zero,
 *  clearing an empty string), so callers must assert the
 *  equality <=> dump-equality equivalence, not plain inequality. */
void
mutateOnce(Value &doc, Rng &rng)
{
    std::vector<Value *> nodes;
    collectNodes(doc, nodes);
    Value &v = *nodes[rng.below(nodes.size())];
    switch (v.type()) {
      case Value::Type::Number: {
        double d = v.asNumber();
        switch (rng.below(3)) {
          case 0: v = Value(d + 1.0); break;
          case 1: v = Value(-d); break;
          default: v = Value(d * 0.5 + 0.25); break;
        }
        break;
      }
      case Value::Type::String: {
        std::string s = v.asString();
        if (rng.below(2) == 0)
            s += "x";
        else
            s.clear();
        v = Value(s);
        break;
      }
      case Value::Type::Bool:
        v = Value(!v.asBool());
        break;
      case Value::Type::Null:
        v = Value(1.0);
        break;
      case Value::Type::Array: {
        auto &arr = v.mutableArray();
        if (!arr.empty() && rng.below(2) == 0)
            arr.pop_back();
        else
            v.push(Value(42.0));
        break;
      }
      case Value::Type::Object: {
        auto &obj = v.mutableObject();
        if (!obj.empty()) {
            switch (rng.below(3)) {
              case 0:
                obj.pop_back();
                break;
              case 1:
                obj[rng.below(obj.size())].first += "_mut";
                break;
              default:
                // Reorder: objects are insertion-ordered, so a swap
                // changes the structure AND the rendered bytes.
                if (obj.size() >= 2)
                    std::swap(obj.front(), obj.back());
                else
                    obj.front().first += "_mut";
                break;
            }
        } else {
            v.set("mut", Value(true));
        }
        break;
      }
    }
}

/** The property at the heart of the hashed cache keys: equality
 *  agrees with the deterministic writer, and hashing is a function
 *  of the same structure. */
void
expectWriterAgreement(const Value &a, const Value &b,
                      const std::string &what)
{
    const bool eq = a == b;
    EXPECT_EQ(eq, a.dump(0) == b.dump(0)) << what;
    EXPECT_EQ(eq, !(a != b)) << what;
    if (eq) {
        EXPECT_EQ(a.hash(), b.hash()) << what;
        EXPECT_EQ(a.hash(7u), b.hash(7u)) << what << " (seeded)";
    }
}

// ------------------------------------------------- equality semantics

TEST(JsonEquality, GoldenCorpusRoundTripsCompareEqual)
{
    const std::vector<fs::path> docs = goldenDocs();
    ASSERT_GE(docs.size(), 20u);
    for (const fs::path &path : docs) {
        const std::string text = readFile(path);
        const Value a = Value::parse(text);
        const Value b = Value::parse(text);
        const Value c = Value::parse(a.dump(2));
        EXPECT_TRUE(a == b) << path.filename();
        EXPECT_TRUE(a == c) << path.filename();
        EXPECT_EQ(a.hash(), c.hash()) << path.filename();
        expectWriterAgreement(a, c, path.filename().string());
    }
}

TEST(JsonEquality, GoldenCorpusDocsAreMutuallyDistinct)
{
    const std::vector<fs::path> docs = goldenDocs();
    std::vector<Value> parsed;
    for (const fs::path &path : docs)
        parsed.push_back(Value::parse(readFile(path)));
    for (size_t i = 0; i < parsed.size(); ++i) {
        for (size_t j = i + 1; j < parsed.size(); ++j) {
            EXPECT_TRUE(parsed[i] != parsed[j])
                << docs[i].filename() << " vs " << docs[j].filename();
            // Distinct documents must split the hash — fnv-1a over
            // full multi-kilobyte specs colliding here would mean
            // the hash ignores part of the structure.
            EXPECT_NE(parsed[i].hash(), parsed[j].hash())
                << docs[i].filename() << " vs " << docs[j].filename();
            expectWriterAgreement(parsed[i], parsed[j],
                                  docs[i].filename().string());
        }
    }
}

TEST(JsonEquality, MutatedVariantsAgreeWithTheWriter)
{
    const std::vector<fs::path> docs = goldenDocs();
    size_t mutants = 0;
    for (size_t d = 0; d < docs.size(); ++d) {
        const Value original = Value::parse(readFile(docs[d]));
        Rng rng{0x9e3779b97f4a7c15ull + d};
        for (int round = 0; round < 8; ++round, ++mutants) {
            Value mutant = original;
            mutateOnce(mutant, rng);
            expectWriterAgreement(original, mutant,
                                  docs[d].filename().string());
            // Stacked mutations too — mutants vs mutants.
            Value second = mutant;
            mutateOnce(second, rng);
            expectWriterAgreement(mutant, second,
                                  docs[d].filename().string());
        }
    }
    EXPECT_GE(mutants, 160u);
}

TEST(JsonEquality, ObjectsAreOrderSensitive)
{
    const Value a = Value::parse(R"({"x": 1, "y": 2})");
    const Value b = Value::parse(R"({"y": 2, "x": 1})");
    EXPECT_TRUE(a != b);
    expectWriterAgreement(a, b, "member order");
}

TEST(JsonEquality, TypeMismatchesAreUnequal)
{
    EXPECT_TRUE(Value(1.0) != Value("1"));
    EXPECT_TRUE(Value(true) != Value(1.0));
    EXPECT_TRUE(Value() != Value(false));
    EXPECT_TRUE(Value::makeArray() != Value::makeObject());
    // Same-type structural differences.
    Value arr1 = Value::makeArray();
    arr1.push(Value(1.0));
    Value arr2 = arr1;
    arr2.push(Value(2.0));
    EXPECT_TRUE(arr1 != arr2);
    expectWriterAgreement(arr1, arr2, "array length");
}

// ----------------------------------------------------- number edges

TEST(JsonNumbers, NegativeZeroEqualsZeroEverywhere)
{
    const Value pos(0.0);
    const Value neg(-0.0);
    EXPECT_TRUE(pos == neg);
    EXPECT_EQ(pos.hash(), neg.hash());
    // The writer agrees: both render as "0" (integer-formatted).
    expectWriterAgreement(pos, neg, "-0.0 vs 0.0");

    // Nested, where the container hash folds the canonicalized
    // member hash in.
    Value a = Value::makeObject();
    a.set("v", Value(0.0));
    Value b = Value::makeObject();
    b.set("v", Value(-0.0));
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.hash(), b.hash());
    expectWriterAgreement(a, b, "nested -0.0");
}

TEST(JsonNumbers, NanIsSelfEqualAndHashStable)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Value a(nan);
    const Value b(-nan); // a different NaN bit pattern
    // Reflexivity keeps cache verification sane: a compiled point
    // holding a NaN field must match ITSELF on re-lookup.
    EXPECT_TRUE(a == a);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_TRUE(a != Value(1.0));
    // NaN is outside the writer's domain (the dump <=> equality
    // equivalence is quantified over serializable values only).
    EXPECT_THROW(a.dump(0), ConfigError);
}

TEST(JsonNumbers, FormattingEdgesAgreeWithEquality)
{
    // Integer-formatted doubles, the %.17g band, and values parsed
    // back from their own rendering.
    const double edges[] = {0.0,     -0.0,   1.0,      -1.0,
                            0.1,     -0.1,   1e-300,   8.9e15,
                            9.1e15,  2.5,    1.0 / 3., 123456789.0,
                            1e100,   -1e100, 5e-324};
    for (double x : edges) {
        for (double y : edges) {
            const Value a(x);
            const Value b(y);
            expectWriterAgreement(
                a, b, "x=" + std::to_string(x) +
                          " y=" + std::to_string(y));
            // Round-trip through the writer preserves equality and
            // hash (exact double round-trips are a writer
            // guarantee).
            const Value back = Value::parse(a.dump(0));
            EXPECT_TRUE(a == back) << x;
            EXPECT_EQ(a.hash(), back.hash()) << x;
        }
    }
}

TEST(JsonNumbers, OverflowIsAParseErrorUnderflowIsKept)
{
    // strtod saturates an overflow to +-inf, which no document can
    // mean and the writer cannot serialize: the parser reports it, as
    // CAMJ-E018, where the number starts.
    const struct
    {
        const char *text;
        const char *where;
    } overflows[] = {
        {"1e400", "line 1, column 1"},
        {"-1e400", "line 1, column 1"},
        {"1.8e308", "line 1, column 1"},
        {"[1, 2e999]", "line 1, column 5"},
        {"{\"fps\":\n  1e400}", "line 2, column 3"},
    };
    for (const auto &o : overflows) {
        try {
            Value::parse(o.text);
            ADD_FAILURE() << o.text << " parsed";
        } catch (const ConfigError &e) {
            const std::string what = e.what();
            EXPECT_STREQ(e.code(), "CAMJ-E018") << o.text;
            EXPECT_NE(what.find(o.where), std::string::npos) << what;
            EXPECT_NE(what.find("out of range"), std::string::npos)
                << what;
        }
    }
    // The largest double still parses; underflow rounds to a
    // subnormal or to zero, keeping its sign.
    EXPECT_EQ(Value::parse("1.7976931348623157e308").asNumber(),
              std::numeric_limits<double>::max());
    EXPECT_EQ(Value::parse("4.9e-324").asNumber(),
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(Value::parse("1e-400").asNumber(), 0.0);
    EXPECT_TRUE(std::signbit(Value::parse("-1e-400").asNumber()));
}

/** Every number token of a JSON text, in order (strings skipped). */
std::vector<std::string>
numberTokens(const std::string &text)
{
    const std::string_view numberChars = "+-.eE0123456789";
    std::vector<std::string> tokens;
    size_t i = 0;
    while (i < text.size()) {
        const char c = text[i];
        if (c == '"') {
            for (++i; i < text.size() && text[i] != '"'; ++i) {
                if (text[i] == '\\')
                    ++i;
            }
            ++i;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            const size_t start = i;
            while (i < text.size() &&
                   numberChars.find(text[i]) != std::string_view::npos)
                ++i;
            tokens.push_back(text.substr(start, i - start));
        } else {
            ++i;
        }
    }
    return tokens;
}

/** Parse @p token alone and inside an array; both must read to the
 *  bits strtod gives. */
void
expectStrtodBits(const std::string &token)
{
    const uint64_t want =
        std::bit_cast<uint64_t>(std::strtod(token.c_str(), nullptr));
    EXPECT_EQ(std::bit_cast<uint64_t>(Value::parse(token).asNumber()),
              want)
        << token;
    const Value wrapped = Value::parse("[" + token + ", 0]");
    EXPECT_EQ(std::bit_cast<uint64_t>(wrapped.asArray()[0].asNumber()),
              want)
        << token;
}

TEST(JsonNumbers, EveryTokenReadsToTheBitsStrtodGives)
{
    std::vector<fs::path> files = goldenDocs();
    files.push_back(fs::path(CAMJ_EXAMPLES_DIR) / "detector_sweep.json");
    size_t checked = 0;
    for (const fs::path &file : files) {
        for (const std::string &token : numberTokens(readFile(file))) {
            expectStrtodBits(token);
            ++checked;
        }
    }
    // The corpus must actually have been read.
    EXPECT_GT(checked, 1000u);

    const char *const edges[] = {
        "-0", "0", "0.1", "-0.1", "1E5", "1e+5", "1e-5", "5.", ".5",
        "007", "4.9e-324", "-4.9e-324", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "1e-320", "2.2250738585072011e-308",
        "2.2250738585072014e-308", "1.7976931348623157e308", "1e-400",
        "-1e-400",
        // Mantissas longer than 19 digits, including halfway cases
        // that only the full digit string decides.
        "12345678901234567890123",
        "0.12345678901234567890123456789",
        "3.14159265358979323846264338327950288",
        "9007199254740993",
        "9007199254740993.0000000000000000001",
        "9007199254740992.9999999999999999999",
        "1.00000000000000011102230246251565404236316680908203125",
        "1.00000000000000011102230246251565404236316680908203124",
        "123456789012345678901234567890e-300",
    };
    for (const char *token : edges)
        expectStrtodBits(token);
}

/** The writer's number rendering as printf spells it: "%lld" for
 *  integers below 9e15, "%.17g" for everything else. */
std::string
printfNumber(double d)
{
    char buf[40];
    if (d == std::floor(d) && std::fabs(d) < 9.0e15)
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(d));
    else
        std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

void
collectNumbers(const Value &v, std::vector<double> &out)
{
    if (v.isNumber()) {
        out.push_back(v.asNumber());
    } else if (v.isArray()) {
        for (const Value &e : v.asArray())
            collectNumbers(e, out);
    } else if (v.isObject()) {
        for (const auto &[k, e] : v.asObject())
            collectNumbers(e, out);
    }
}

TEST(JsonWriter, NumbersPrintLikePrintf)
{
    std::vector<double> numbers;
    std::vector<fs::path> files = goldenDocs();
    files.push_back(fs::path(CAMJ_EXAMPLES_DIR) / "detector_sweep.json");
    for (const fs::path &file : files)
        collectNumbers(Value::parse(readFile(file)), numbers);
    EXPECT_GT(numbers.size(), 1000u); // the corpus was read

    const double maxd = std::numeric_limits<double>::max();
    const double denorm = std::numeric_limits<double>::denorm_min();
    const double edges[] = {0.0,           -0.0,
                            denorm,        -denorm,
                            denorm * 3,    std::bit_cast<double>(
                                               uint64_t{0x000fffffffffffff}),
                            9e15 - 1,      9e15,
                            9e15 + 1,      -9e15 - 1,
                            -9e15,         -9e15 + 1,
                            maxd,          -maxd};
    numbers.insert(numbers.end(), std::begin(edges), std::end(edges));

    Rng rng{0x9e3779b97f4a7c15ull};
    for (size_t i = 0; i < 1000000;) {
        const double d = std::bit_cast<double>(rng.next());
        if (!std::isfinite(d))
            continue;
        numbers.push_back(d);
        ++i;
    }

    size_t mismatches = 0;
    for (double d : numbers) {
        const std::string want = printfNumber(d);
        const std::string got = Value(d).dump(0);
        if (got != want && ++mismatches <= 10)
            ADD_FAILURE() << "bits " << std::hex
                          << std::bit_cast<uint64_t>(d) << ": writer "
                          << got << ", printf " << want;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << numbers.size() << " numbers";
}

TEST(JsonWriter, WritesTheBytesOfTheTreeItMirrors)
{
    // Nested objects and arrays, empty ones, every scalar kind, and
    // strings that need every escape, written member by member and
    // built as a tree: the same bytes, appended after what the buffer
    // held.
    const std::string texts[] = {
        "", "plain", "det \"q\" \\ \xc3\xa9\x01",
        std::string("nul\0byte", 8), "\n\t\r\b\f\x1f\x7f",
        "\xf0\x9f\x93\xb7 {}/[]"};
    const double numbers[] = {0.0, -0.0, 5e-324, -2.5,
                              9007199254740993.0, 9e15, 0.1, 1e300};
    std::string out = "kept|";
    json::Writer w(out);
    Value tree = Value::makeObject();
    w.beginObject();
    w.key("texts");
    w.beginArray();
    Value text_array = Value::makeArray();
    for (const std::string &t : texts) {
        w.string(t);
        text_array.push(Value(t));
    }
    w.endArray();
    tree.set("texts", std::move(text_array));
    w.key("numbers");
    w.beginObject();
    Value number_object = Value::makeObject();
    for (size_t i = 0; i < std::size(numbers); ++i) {
        const std::string key = "n" + std::to_string(i);
        w.key(key);
        w.number(numbers[i]);
        number_object.set(key, Value(numbers[i]));
    }
    w.endObject();
    tree.set("numbers", std::move(number_object));
    w.key("flags");
    w.beginArray();
    w.boolean(true);
    w.beginArray();
    w.endArray();
    w.beginObject();
    w.endObject();
    w.boolean(false);
    w.endArray();
    Value flags = Value::makeArray();
    flags.push(Value(true));
    flags.push(Value::makeArray());
    flags.push(Value::makeObject());
    flags.push(Value(false));
    tree.set("flags", std::move(flags));
    w.endObject();
    EXPECT_EQ(out, "kept|" + tree.dump(0));

    std::string bad;
    json::Writer nonfinite(bad);
    EXPECT_THROW(
        nonfinite.number(std::numeric_limits<double>::infinity()),
        ConfigError);
    EXPECT_THROW(nonfinite.number(std::nan("")), ConfigError);
}

TEST(JsonNumbers, MalformedAndOutOfRangeNumbersKeepTheirTexts)
{
    const struct
    {
        const char *text;
        const char *what;
    } cases[] = {
        {"1e400", "number '1e400' is out of range"},
        {"-1E400", "number '-1E400' is out of range"},
        {"[1, 2e999]",
         "json parse error at line 1, column 5: number '2e999' is out "
         "of range"},
        {"-e5", "json parse error at line 1, column 4: malformed number "
                "'-e5'"},
        {"[0.5,\n -.e3]",
         "json parse error at line 2, column 6: malformed number "
         "'-.e3'"},
        {"-", "json parse error at line 1, column 2: invalid value"},
        {"[1e]",
         "json parse error at line 1, column 4: malformed exponent"},
        {"1.5e-",
         "json parse error at line 1, column 6: malformed exponent"},
        {"0x12", "json parse error at line 1, column 2: trailing "
                 "characters after the JSON document"},
        {"+1", "json parse error at line 1, column 1: invalid value"},
    };
    for (const auto &c : cases) {
        try {
            Value::parse(c.text);
            ADD_FAILURE() << c.text << " parsed";
        } catch (const ConfigError &e) {
            EXPECT_STREQ(e.code(), "CAMJ-E018") << c.text;
            EXPECT_NE(std::string(e.what()).find(c.what),
                      std::string::npos)
                << e.what();
        }
    }
    try {
        Value::parse("1e400");
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.what(), "fatal: json parse error at line 1, "
                               "column 1: number '1e400' is out of "
                               "range");
    }
}

TEST(JsonNumbers, AsIntRejectsNumbersOutsideInt64)
{
    // [-2^63, 2^63) converts; anything past it throws CAMJ-E018
    // naming the number, where llround's result would be unspecified.
    EXPECT_EQ(Value(-0x1p63).asInt(), INT64_MIN);
    EXPECT_EQ(Value(0x1p63 - 1024.0).asInt(), INT64_MAX - 1023);
    EXPECT_EQ(Value(2.5).asInt(), 3);
    EXPECT_EQ(Value(-2.5).asInt(), -3);
    const struct
    {
        double value;
        const char *text;
    } cases[] = {
        {0x1p63, "9223372036854775808"},
        {-0x1p63 - 2048.0, "-9223372036854777856"},
        {1e19, "1e+19"},
        {-1e19, "-1e+19"},
        {1e308, "1e+308"},
    };
    for (const auto &c : cases) {
        try {
            Value(c.value).asInt();
            ADD_FAILURE() << c.text << " converted";
        } catch (const ConfigError &e) {
            EXPECT_STREQ(e.code(), "CAMJ-E018") << c.text;
            EXPECT_NE(std::string(e.what()).find(
                          std::string("json: number ") + c.text +
                          " does not fit a 64-bit integer"),
                      std::string::npos)
                << e.what();
        }
    }
}

// ------------------------------------------------------------- nesting

/** @p depth arrays, each inside the one before: [[...]]. */
std::string
nestedArrays(size_t depth)
{
    return std::string(depth, '[') + std::string(depth, ']');
}

/** @p depth objects, each the member "a" of the one before. */
std::string
nestedObjects(size_t depth)
{
    std::string text;
    text.reserve(depth * 6);
    for (size_t i = 1; i < depth; ++i)
        text += "{\"a\":";
    text += "{}";
    text.append(depth - 1, '}');
    return text;
}

TEST(JsonParse, NestingPastTheLimitIsAParseError)
{
    const size_t limit = static_cast<size_t>(json::kMaxNestingDepth);
    EXPECT_TRUE(Value::parse(nestedArrays(limit)).isArray());
    EXPECT_TRUE(Value::parse(nestedObjects(limit)).isObject());

    // The container one level past the limit is reported where it
    // opens: column limit + 1 for arrays, 5 * limit + 1 for objects
    // ('{"a":' is five characters).
    const std::string nesting = "nesting deeper than " +
                                std::to_string(limit) + " levels";
    const std::string arrays_at =
        "line 1, column " + std::to_string(limit + 1) + ": ";
    const std::string objects_at =
        "line 1, column " + std::to_string(5 * limit + 1) + ": ";
    for (size_t depth : {limit + 1, size_t{100000}, size_t{1000000}}) {
        const struct
        {
            std::string text;
            std::string where;
        } docs[] = {{nestedArrays(depth), arrays_at},
                    {nestedObjects(depth), objects_at}};
        for (const auto &doc : docs) {
            try {
                Value::parse(doc.text);
                ADD_FAILURE() << depth << " levels parsed";
            } catch (const ConfigError &e) {
                EXPECT_STREQ(e.code(), "CAMJ-E018");
                EXPECT_EQ(std::string(e.what()),
                          "fatal: json parse error at " + doc.where +
                              nesting);
            }
        }
    }
}

// ------------------------------------------------------------- hashing

TEST(JsonHash, SeedChainingSeparatesDomains)
{
    const Value v = Value::parse(R"({"a": [1, 2, {"b": "c"}]})");
    EXPECT_NE(v.hash(), v.hash(12345u));
    // Chaining is deterministic.
    EXPECT_EQ(v.hash(12345u), v.hash(12345u));
    // hashBytes seeding matches what the cache-key builders do.
    const uint64_t seeded =
        json::hashBytes(json::kHashSeed, "domain", 6);
    EXPECT_EQ(v.hash(seeded), v.hash(seeded));
    EXPECT_NE(v.hash(seeded), v.hash());
}

TEST(JsonHash, StructureDistinguishesContainerBoundaries)
{
    // Same leaf bytes, different shapes — the count/length prefixes
    // in the hash encoding must keep these apart.
    const Value a = Value::parse(R"([["x"], ["y"]])");
    const Value b = Value::parse(R"([["x", "y"]])");
    const Value c = Value::parse(R"(["x", "y"])");
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_NE(b.hash(), c.hash());
    EXPECT_NE(a.hash(), c.hash());
    const Value d = Value::parse(R"({"ab": ""})");
    const Value e = Value::parse(R"({"a": "b"})");
    EXPECT_NE(d.hash(), e.hash());
}

// ------------------------------------------------------ move semantics

TEST(JsonMove, MoveConstructionPreservesRoundTripBytes)
{
    const std::vector<fs::path> docs = goldenDocs();
    ASSERT_FALSE(docs.empty());
    const std::string text = readFile(docs.front());
    Value original = Value::parse(text);
    const std::string before = original.dump(2);
    const uint64_t hash_before = original.hash();

    Value moved = std::move(original);
    EXPECT_EQ(moved.dump(2), before);
    EXPECT_EQ(moved.hash(), hash_before);
    // The moved-from value is a well-defined Null, reusable.
    EXPECT_TRUE(original.isNull());
    original = moved; // copy back
    EXPECT_TRUE(original == moved);
    EXPECT_EQ(original.dump(2), before);
}

TEST(JsonMove, MoveAwarePushAndSetMatchCopyingBuilds)
{
    // Build the same document twice — once moving subtrees in, once
    // copying them — and require byte-identical rendering.
    auto subtree = [] {
        Value inner = Value::makeObject();
        inner.set("k", Value("v"));
        Value arr = Value::makeArray();
        arr.push(Value(1.0));
        arr.push(Value("two"));
        inner.set("list", std::move(arr));
        return inner;
    };

    Value moved = Value::makeObject();
    {
        Value s = subtree();
        std::string key = "child";
        moved.set(std::move(key), std::move(s));
        Value arr = Value::makeArray();
        Value elem = subtree();
        arr.push(std::move(elem));
        moved.set("children", std::move(arr));
    }
    Value copied = Value::makeObject();
    {
        const Value s = subtree();
        copied.set("child", s);
        Value arr = Value::makeArray();
        const Value elem = subtree();
        arr.push(elem);
        copied.set("children", arr);
    }
    EXPECT_TRUE(moved == copied);
    EXPECT_EQ(moved.dump(2), copied.dump(2));
    EXPECT_EQ(moved.hash(), copied.hash());
}

TEST(JsonMove, SelfReferentialCopyAssignIsSafe)
{
    Value doc = Value::parse(R"({"child": {"x": 1, "y": [2, 3]}})");
    const Value expect = doc.at("child");
    doc = doc.at("child"); // aliasing assignment
    EXPECT_TRUE(doc == expect);
}

// -------------------------------------------------------- reserve API

TEST(JsonReserve, OnlyContainersAcceptReserve)
{
    Value arr = Value::makeArray();
    arr.reserve(64);
    Value obj = Value::makeObject();
    obj.reserve(64);
    Value num(1.0);
    EXPECT_THROW(num.reserve(4), ConfigError);
    Value null;
    EXPECT_THROW(null.reserve(4), ConfigError);
}

} // namespace
} // namespace camj

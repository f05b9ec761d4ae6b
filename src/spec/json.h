/**
 * @file
 * A minimal, dependency-free JSON value type with a hand-rolled
 * recursive-descent parser and a deterministic writer. Only what the
 * DesignSpec serialization needs: null/bool/number/string/array/object,
 * insertion-ordered objects (stable round-trips), and %.17g number
 * formatting so doubles survive save/load bit-exactly.
 *
 * The parser is one pointer pass over the text: numbers are read with
 * std::from_chars (strtod only for the tokens from_chars declines, so
 * out-of-range texts keep their wording), each object member is
 * appended once after its duplicate-key check, and nesting is capped
 * at kMaxNestingDepth so a hostile document ends in a parse error
 * rather than a stack overflow.
 *
 * Storage is COMPACT: a Value is a type tag plus an 8-byte payload
 * (the bool/double inline, strings/arrays/objects behind one owning
 * pointer), so a Number node costs 16 bytes instead of the ~120 of
 * the old every-payload-inline layout, and moving a container Value
 * is a pointer swap. Sweep expansion clones and compares millions of
 * these; the layout is a measured hot-path win (bench/perf_simulator
 * `specOps` section).
 *
 * Structural comparison is first-class: operator== and a streamed
 * 64-bit hash() agree with the deterministic writer — for any two
 * serializable values, a == b exactly when a.dump(0) == b.dump(0)
 * (pinned by tests/json_test.cc). Numbers compare numerically with
 * -0.0 == 0.0 (the writer renders both as "0") and NaN == NaN (so ==
 * stays an equivalence relation; NaN cannot be serialized at all).
 * hash() canonicalizes -0.0 and NaN accordingly: a == b implies
 * hash() equality, so hashes are sound cache-key fast-paths as long
 * as a full structural-equality verify backs them.
 *
 * Errors are reported through the library-wide ConfigError (a malformed
 * spec file is a user configuration problem, like any other bad design
 * description).
 */

#ifndef CAMJ_SPEC_JSON_H
#define CAMJ_SPEC_JSON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace camj::json
{

/** fnv-1a offset basis: the seed of every streamed hash chain. */
inline constexpr uint64_t kHashSeed = 1469598103934665603ull;

/** Mix @p len bytes into an fnv-1a chain started from @p h. */
uint64_t hashBytes(uint64_t h, const void *data, size_t len);

/** Deepest array/object nesting Value::parse accepts (spec documents
 *  nest about 8 deep); one level more is a CAMJ-E018 parse error. */
inline constexpr int kMaxNestingDepth = 512;

/**
 * Append @p s to @p out as a quoted JSON string: quotes, backslashes
 * and control bytes escaped, every other byte (UTF-8 included) as
 * is. The one spelling of a string that Value::dump and Writer share.
 */
void appendEscaped(std::string &out, std::string_view s);

/**
 * Append @p d to @p out as a JSON number: an integer of magnitude
 * below 9e15 without an exponent, anything else as %.17g, so a
 * double reads back as itself. The one spelling of a number that
 * Value::dump and Writer share.
 *
 * @throws ConfigError on a non-finite number.
 */
void appendNumber(std::string &out, double d);

/**
 * An append-only JSON writer into a caller-owned buffer: a document
 * written member by member, with no Value tree in between (a sweep
 * result line). Output is compact, with the bytes Value::dump(0)
 * gives the same members. Keys are written as given, so a key must
 * need no escaping: a literal or a fixed name.
 */
class Writer
{
  public:
    /** Appends to @p out, which must outlive the writer. */
    explicit Writer(std::string &out) : out_(out) {}

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** The next member's key; @p plain needs no escaping. */
    void key(std::string_view plain)
    {
        separate();
        out_ += '"';
        out_ += plain;
        out_ += "\":";
        first_ = true;
    }

    void number(double d)
    {
        separate();
        appendNumber(out_, d);
        first_ = false;
    }

    void boolean(bool b)
    {
        separate();
        out_ += b ? "true" : "false";
        first_ = false;
    }

    void string(std::string_view s)
    {
        separate();
        appendEscaped(out_, s);
        first_ = false;
    }

  private:
    std::string &out_;
    /** True where the next value needs no comma before it: after an
     *  opening bracket or a key. */
    bool first_ = true;

    void separate()
    {
        if (!first_)
            out_ += ',';
    }
    void open(char bracket)
    {
        separate();
        out_ += bracket;
        first_ = true;
    }
    void close(char bracket)
    {
        out_ += bracket;
        first_ = false;
    }
};

/** One JSON value; a tree of these represents a document. */
class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Ordered key/value storage: preserves author ordering. */
    using Object = std::vector<std::pair<std::string, Value>>;
    using Array = std::vector<Value>;

    Value() noexcept : type_(Type::Null) { payload_.num = 0.0; }
    Value(bool b) : type_(Type::Bool) { payload_.boolean = b; }
    Value(double d) : type_(Type::Number) { payload_.num = d; }
    Value(int i) : type_(Type::Number) { payload_.num = i; }
    Value(int64_t i) : type_(Type::Number)
    {
        payload_.num = static_cast<double>(i);
    }
    Value(const char *s) : type_(Type::String)
    {
        payload_.str = new std::string(s);
    }
    Value(std::string s) : type_(Type::String)
    {
        payload_.str = new std::string(std::move(s));
    }

    ~Value() { destroy(); }

    Value(const Value &other);
    Value(Value &&other) noexcept
        : type_(other.type_), payload_(other.payload_)
    {
        other.type_ = Type::Null;
        other.payload_.num = 0.0;
    }
    Value &operator=(const Value &other);
    Value &operator=(Value &&other) noexcept;

    /** An empty array value. */
    static Value makeArray();
    /** An empty object value. */
    static Value makeObject();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** @throws ConfigError if the value is not of the asked type. */
    bool asBool() const;
    double asNumber() const;
    /** Number as a (rounded) 64-bit integer; a number outside
     *  [-2^63, 2^63) throws CAMJ-E018 naming it. */
    int64_t asInt() const;
    /** Number as a (rounded) 32-bit integer; a number outside
     *  [-2^31, 2^31) throws CAMJ-E018 naming it. */
    int asInt32() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    // ----- structural comparison -----

    /**
     * Structural equality: same type, same members in the same order.
     * Numbers compare numerically with -0.0 == 0.0 and NaN == NaN;
     * for any two serializable values this is exactly dump(0)
     * equality, without serializing anything.
     */
    bool operator==(const Value &other) const;
    bool operator!=(const Value &other) const
    {
        return !(*this == other);
    }

    /**
     * Streamed 64-bit structural hash (fnv-1a over a canonical byte
     * encoding; no intermediate string is built). a == b implies
     * a.hash(s) == b.hash(s) for any seed @p seed. A hash is a cache
     * FAST-PATH only — always verify candidates with operator==.
     */
    uint64_t hash(uint64_t seed = kHashSeed) const;

    // ----- array building -----

    /** Append to an array (converts a Null value into an array). */
    void push(Value v);

    /** Pre-size an array's or object's member storage.
     *  @throws ConfigError on any other value type. */
    void reserve(size_t n);

    // ----- object access -----

    /** True when an object has @p key. */
    bool has(std::string_view key) const;

    /**
     * Member lookup. @throws ConfigError when absent or not an
     * object; the error lists the keys that do exist.
     */
    const Value &at(std::string_view key) const;

    /** Member lookup returning nullptr when absent. */
    const Value *find(std::string_view key) const;

    /** Mutable member lookup, for in-place document edits (e.g. grid
     *  expansion overriding one field of a cloned spec document). */
    Value *find(std::string_view key);

    /** Mutable element access. @throws ConfigError unless an array. */
    Array &mutableArray();

    /** Mutable member storage, for structural document edits (e.g.
     *  spec-diff application removing a member).
     *  @throws ConfigError unless an object. */
    Object &mutableObject();

    /** Set/overwrite a member (converts a Null value into an object).
     *  Move-aware in both the key and the value. */
    void set(std::string key, Value v);

    // ----- typed object getters with defaults -----

    double getNumber(std::string_view key, double fallback) const;
    int64_t getInt(std::string_view key, int64_t fallback) const;
    bool getBool(std::string_view key, bool fallback) const;
    std::string getString(std::string_view key,
                          const std::string &fallback) const;

    /**
     * Serialize. @param indent Spaces per nesting level; 0 renders a
     * single line. Numbers use %.17g, so doubles round-trip exactly.
     */
    std::string dump(int indent = 2) const;

    /**
     * Parse a JSON document.
     *
     * @throws ConfigError (CAMJ-E018) with line/column context on
     *         syntax errors, out-of-range numbers and nesting deeper
     *         than kMaxNestingDepth.
     */
    static Value parse(std::string_view text);

  private:
    union Payload
    {
        bool boolean;
        double num;
        std::string *str;
        Array *arr;
        Object *obj;
    };

    Type type_;
    Payload payload_;

    void destroy() noexcept;
    void copyFrom(const Value &other);
    void dumpTo(std::string &out, int indent, int depth) const;
};

} // namespace camj::json

#endif // CAMJ_SPEC_JSON_H

#include "spec/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace camj::json
{

uint64_t
hashBytes(uint64_t h, const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull; // fnv-1a prime
    }
    return h;
}

// ----------------------------------------------------- special members

void
Value::destroy() noexcept
{
    switch (type_) {
      case Type::String: delete payload_.str; break;
      case Type::Array: delete payload_.arr; break;
      case Type::Object: delete payload_.obj; break;
      default: break;
    }
}

void
Value::copyFrom(const Value &other)
{
    type_ = other.type_;
    switch (type_) {
      case Type::String:
        payload_.str = new std::string(*other.payload_.str);
        break;
      case Type::Array:
        payload_.arr = new Array(*other.payload_.arr);
        break;
      case Type::Object:
        payload_.obj = new Object(*other.payload_.obj);
        break;
      default:
        payload_ = other.payload_;
        break;
    }
}

Value::Value(const Value &other) { copyFrom(other); }

Value &
Value::operator=(const Value &other)
{
    if (this != &other) {
        // Copy before destroy: self-referential assignments like
        // `doc = doc.at("child")` must read the source intact.
        Value tmp(other);
        destroy();
        type_ = tmp.type_;
        payload_ = tmp.payload_;
        tmp.type_ = Type::Null;
        tmp.payload_.num = 0.0;
    }
    return *this;
}

Value &
Value::operator=(Value &&other) noexcept
{
    if (this != &other) {
        destroy();
        type_ = other.type_;
        payload_ = other.payload_;
        other.type_ = Type::Null;
        other.payload_.num = 0.0;
    }
    return *this;
}

Value
Value::makeArray()
{
    Value v;
    v.type_ = Type::Array;
    v.payload_.arr = new Array();
    return v;
}

Value
Value::makeObject()
{
    Value v;
    v.type_ = Type::Object;
    v.payload_.obj = new Object();
    return v;
}

namespace
{

const char *
typeName(Value::Type t)
{
    switch (t) {
      case Value::Type::Null: return "null";
      case Value::Type::Bool: return "bool";
      case Value::Type::Number: return "number";
      case Value::Type::String: return "string";
      case Value::Type::Array: return "array";
      case Value::Type::Object: return "object";
    }
    return "?";
}

/** The indefinite article typeName(t) takes ("an array"). */
const char *
articleFor(Value::Type t)
{
    return t == Value::Type::Array || t == Value::Type::Object ? "an"
                                                               : "a";
}

} // namespace

bool
Value::asBool() const
{
    if (type_ != Type::Bool)
        fatal(Rule::E018, "json: expected bool, got %s", typeName(type_));
    return payload_.boolean;
}

double
Value::asNumber() const
{
    if (type_ != Type::Number)
        fatal(Rule::E018, "json: expected number, got %s", typeName(type_));
    return payload_.num;
}

namespace
{

/** Refuse @p d as CAMJ-E018: it does not fit a @p bits-bit integer. */
[[noreturn]] void
doesNotFit(double d, int bits)
{
    char buf[32];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), d);
    fatal(Rule::E018, "json: number %.*s does not fit a %d-bit integer",
          static_cast<int>(r.ptr - buf), buf, bits);
}

} // namespace

int64_t
Value::asInt() const
{
    const double d = asNumber();
    // Outside [-2^63, 2^63) llround's result is unspecified.
    if (!(d >= -0x1p63 && d < 0x1p63))
        doesNotFit(d, 64);
    return static_cast<int64_t>(std::llround(d));
}

int
Value::asInt32() const
{
    const double d = asNumber();
    // llround rounds halves away from zero, so these are the numbers
    // that round into [-2^31, 2^31).
    if (!(d > -0x1p31 - 0.5 && d < 0x1p31 - 0.5))
        doesNotFit(d, 32);
    return static_cast<int>(std::llround(d));
}

const std::string &
Value::asString() const
{
    if (type_ != Type::String)
        fatal(Rule::E018, "json: expected string, got %s", typeName(type_));
    return *payload_.str;
}

const Value::Array &
Value::asArray() const
{
    if (type_ != Type::Array)
        fatal(Rule::E018, "json: expected array, got %s", typeName(type_));
    return *payload_.arr;
}

const Value::Object &
Value::asObject() const
{
    if (type_ != Type::Object)
        fatal(Rule::E018, "json: expected object, got %s", typeName(type_));
    return *payload_.obj;
}

// --------------------------------------------------------- comparison

bool
Value::operator==(const Value &other) const
{
    if (this == &other)
        return true;
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null:
        return true;
      case Type::Bool:
        return payload_.boolean == other.payload_.boolean;
      case Type::Number: {
        const double a = payload_.num;
        const double b = other.payload_.num;
        // Numeric equality makes -0.0 == 0.0 (both dump as "0");
        // NaN == NaN keeps == an equivalence relation (NaN never
        // serializes — dump() rejects non-finite numbers).
        return a == b || (std::isnan(a) && std::isnan(b));
      }
      case Type::String:
        return *payload_.str == *other.payload_.str;
      case Type::Array: {
        const Array &a = *payload_.arr;
        const Array &b = *other.payload_.arr;
        if (a.size() != b.size())
            return false;
        for (size_t i = 0; i < a.size(); ++i) {
            if (a[i] != b[i])
                return false;
        }
        return true;
      }
      case Type::Object: {
        const Object &a = *payload_.obj;
        const Object &b = *other.payload_.obj;
        if (a.size() != b.size())
            return false;
        for (size_t i = 0; i < a.size(); ++i) {
            if (a[i].first != b[i].first ||
                a[i].second != b[i].second)
                return false;
        }
        return true;
      }
    }
    return false;
}

uint64_t
Value::hash(uint64_t seed) const
{
    uint64_t h = seed;
    const auto tag = static_cast<unsigned char>(type_);
    h = hashBytes(h, &tag, 1);
    switch (type_) {
      case Type::Null:
        break;
      case Type::Bool: {
        const unsigned char b = payload_.boolean ? 1 : 0;
        h = hashBytes(h, &b, 1);
        break;
      }
      case Type::Number: {
        // Canonicalize the cases where distinct bit patterns compare
        // equal, so a == b implies equal hashes.
        double d = payload_.num;
        if (d == 0.0)
            d = 0.0;
        else if (std::isnan(d))
            d = std::numeric_limits<double>::quiet_NaN();
        h = hashBytes(h, &d, sizeof(d));
        break;
      }
      case Type::String: {
        const std::string &s = *payload_.str;
        const uint64_t n = s.size();
        h = hashBytes(h, &n, sizeof(n));
        h = hashBytes(h, s.data(), s.size());
        break;
      }
      case Type::Array: {
        const Array &a = *payload_.arr;
        const uint64_t n = a.size();
        h = hashBytes(h, &n, sizeof(n));
        for (const Value &v : a)
            h = v.hash(h);
        break;
      }
      case Type::Object: {
        const Object &o = *payload_.obj;
        const uint64_t n = o.size();
        h = hashBytes(h, &n, sizeof(n));
        for (const auto &[k, v] : o) {
            const uint64_t kn = k.size();
            h = hashBytes(h, &kn, sizeof(kn));
            h = hashBytes(h, k.data(), k.size());
            h = v.hash(h);
        }
        break;
      }
    }
    return h;
}

// ----------------------------------------------------------- mutation

void
Value::push(Value v)
{
    if (type_ == Type::Null) {
        type_ = Type::Array;
        payload_.arr = new Array();
    }
    if (type_ != Type::Array)
        fatal("json: push on %s %s value", articleFor(type_),
              typeName(type_));
    payload_.arr->push_back(std::move(v));
}

void
Value::reserve(size_t n)
{
    if (type_ == Type::Array)
        payload_.arr->reserve(n);
    else if (type_ == Type::Object)
        payload_.obj->reserve(n);
    else
        fatal("json: reserve on %s %s value", articleFor(type_),
              typeName(type_));
}

bool
Value::has(std::string_view key) const
{
    return find(key) != nullptr;
}

const Value *
Value::find(std::string_view key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[k, v] : *payload_.obj) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

Value *
Value::find(std::string_view key)
{
    return const_cast<Value *>(
        static_cast<const Value *>(this)->find(key));
}

Value::Array &
Value::mutableArray()
{
    if (type_ != Type::Array)
        fatal(Rule::E018, "json: expected array, got %s", typeName(type_));
    return *payload_.arr;
}

Value::Object &
Value::mutableObject()
{
    if (type_ != Type::Object)
        fatal(Rule::E018, "json: expected object, got %s", typeName(type_));
    return *payload_.obj;
}

const Value &
Value::at(std::string_view key) const
{
    const int klen = static_cast<int>(key.size());
    if (type_ != Type::Object)
        fatal(Rule::E018,
              "json: member '%.*s' requested from %s %s value", klen,
              key.data(), articleFor(type_), typeName(type_));
    if (const Value *v = find(key))
        return *v;
    std::string keys;
    for (const auto &[k, v] : *payload_.obj)
        keys += (keys.empty() ? "" : ", ") + k;
    fatal(Rule::E018,
          "json: missing member '%.*s' (object has: %s)", klen, key.data(),
          keys.empty() ? "<empty>" : keys.c_str());
}

void
Value::set(std::string key, Value v)
{
    if (type_ == Type::Null) {
        type_ = Type::Object;
        payload_.obj = new Object();
    }
    if (type_ != Type::Object)
        fatal("json: set on %s %s value", articleFor(type_),
              typeName(type_));
    for (auto &[k, old] : *payload_.obj) {
        if (k == key) {
            old = std::move(v);
            return;
        }
    }
    payload_.obj->emplace_back(std::move(key), std::move(v));
}

double
Value::getNumber(std::string_view key, double fallback) const
{
    const Value *v = find(key);
    return v ? v->asNumber() : fallback;
}

int64_t
Value::getInt(std::string_view key, int64_t fallback) const
{
    const Value *v = find(key);
    return v ? v->asInt() : fallback;
}

bool
Value::getBool(std::string_view key, bool fallback) const
{
    const Value *v = find(key);
    return v ? v->asBool() : fallback;
}

std::string
Value::getString(std::string_view key,
                 const std::string &fallback) const
{
    const Value *v = find(key);
    return v ? v->asString() : fallback;
}

// ------------------------------------------------------------- writing

void
appendEscaped(std::string &out, std::string_view s)
{
    out += '"';
    // Single pass: copy maximal runs of plain characters in one
    // append; only the rare escape goes through the switch.
    size_t start = 0;
    const size_t n = s.size();
    for (size_t i = 0; i < n; ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c != '"' && c != '\\' && c >= 0x20)
            continue;
        out.append(s, start, i - start);
        start = i + 1;
        switch (s[i]) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          }
        }
    }
    out.append(s, start, n - start);
    out += '"';
}

void
appendNumber(std::string &out, double d)
{
    if (!std::isfinite(d))
        fatal("json: cannot serialize a non-finite number");
    // Integers up to 2^53 print without an exponent for readability;
    // everything else prints as %.17g would (to_chars with general
    // format and precision 17 is specified to give printf's bytes),
    // for exact double round-trips.
    char buf[40];
    const std::to_chars_result r =
        d == std::floor(d) && std::fabs(d) < 9.0e15
            ? std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(d))
            : std::to_chars(buf, buf + sizeof(buf), d,
                            std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

namespace
{

void
appendNewline(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent * depth), ' ');
}

} // namespace

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += payload_.boolean ? "true" : "false";
        break;
      case Type::Number:
        appendNumber(out, payload_.num);
        break;
      case Type::String:
        appendEscaped(out, *payload_.str);
        break;
      case Type::Array: {
        const Array &arr = *payload_.arr;
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (size_t i = 0; i < arr.size(); ++i) {
            if (i > 0)
                out += ',';
            appendNewline(out, indent, depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        appendNewline(out, indent, depth);
        out += ']';
        break;
      }
      case Type::Object: {
        const Object &obj = *payload_.obj;
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (size_t i = 0; i < obj.size(); ++i) {
            if (i > 0)
                out += ',';
            appendNewline(out, indent, depth + 1);
            appendEscaped(out, obj[i].first);
            out += indent > 0 ? ": " : ":";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        appendNewline(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ------------------------------------------------------------- parsing

namespace
{

/** One pass over the text with a cursor pointer; errors report the
 *  cursor's line and column. */
class Parser
{
  public:
    explicit Parser(std::string_view text)
        : begin_(text.data()), end_(text.data() + text.size()),
          p_(begin_)
    {
    }

    Value
    parseDocument()
    {
        Value v = parseValue(0);
        skipWhitespace();
        if (p_ != end_)
            fail("trailing characters after the JSON document");
        return v;
    }

  private:
    const char *const begin_;
    const char *const end_;
    const char *p_;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        int line = 1, col = 1;
        for (const char *c = begin_; c < p_; ++c) {
            if (*c == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal(Rule::E018,
              "json parse error at line %d, column %d: %s", line, col,
              what.c_str());
    }

    void
    skipWhitespace()
    {
        while (p_ != end_ &&
               (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
            ++p_;
    }

    char
    peek()
    {
        skipWhitespace();
        if (p_ == end_)
            fail("unexpected end of input");
        return *p_;
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++p_;
    }

    bool
    consumeIf(char c)
    {
        if (p_ != end_ && peek() == c) {
            ++p_;
            return true;
        }
        return false;
    }

    void
    expectLiteral(const char *lit)
    {
        for (const char *c = lit; *c; ++c) {
            if (p_ == end_ || *p_ != *c)
                fail(std::string("expected literal '") + lit + "'");
            ++p_;
        }
    }

    /** @p depth counts the containers already open around the value. */
    Value
    parseValue(int depth)
    {
        switch (peek()) {
          case '{': return parseObject(depth + 1);
          case '[': return parseArray(depth + 1);
          case '"': return Value(parseString());
          case 't':
            expectLiteral("true");
            return Value(true);
          case 'f':
            expectLiteral("false");
            return Value(false);
          case 'n':
            expectLiteral("null");
            return Value();
          default:
            return Value(parseNumber());
        }
    }

    /** Reject the container about to open at nesting @p depth when it
     *  would pass the limit (the cursor is on its bracket). */
    void
    checkDepth(int depth) const
    {
        if (depth > kMaxNestingDepth)
            fail("nesting deeper than " +
                 std::to_string(kMaxNestingDepth) + " levels");
    }

    // Spec documents are dominated by small component objects and
    // axis-value arrays; pre-sizing their member vectors to a few
    // slots removes most of the grow-reallocate churn without
    // over-reserving leaf containers.
    static constexpr size_t kContainerReserve = 8;

    Value
    parseObject(int depth)
    {
        checkDepth(depth);
        ++p_; // '{'
        Value obj = Value::makeObject();
        if (consumeIf('}'))
            return obj;
        Value::Object &members = obj.mutableObject();
        members.reserve(kContainerReserve);
        while (true) {
            if (peek() != '"')
                fail("expected a string object key");
            std::string key = parseString();
            expect(':');
            for (const auto &member : members) {
                if (member.first == key)
                    fail("duplicate object key '" + key + "'");
            }
            members.emplace_back(std::move(key), parseValue(depth));
            if (consumeIf(','))
                continue;
            expect('}');
            return obj;
        }
    }

    Value
    parseArray(int depth)
    {
        checkDepth(depth);
        ++p_; // '['
        Value arr = Value::makeArray();
        if (consumeIf(']'))
            return arr;
        Value::Array &elements = arr.mutableArray();
        elements.reserve(kContainerReserve);
        while (true) {
            elements.push_back(parseValue(depth));
            if (consumeIf(','))
                continue;
            expect(']');
            return arr;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            // Copy the maximal run of plain characters in one append.
            const char *run = p_;
            while (run != end_) {
                const auto c = static_cast<unsigned char>(*run);
                if (c == '"' || c == '\\' || c < 0x20)
                    break;
                ++run;
            }
            out.append(p_, run);
            p_ = run;
            if (p_ == end_)
                fail("unterminated string");
            const char c = *p_++;
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (p_ == end_)
                fail("unterminated escape sequence");
            const char e = *p_++;
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': appendUnicodeEscape(out); break;
              default:
                fail(std::string("invalid escape '\\") + e + "'");
            }
        }
    }

    void
    appendUnicodeEscape(std::string &out)
    {
        if (end_ - p_ < 4)
            fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = *p_++;
            code <<= 4;
            if (c >= '0' && c <= '9')
                code += static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code += static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code += static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid hex digit in \\u escape");
        }
        // Encode the BMP code point as UTF-8 (surrogate pairs are not
        // needed by spec files; reject them explicitly).
        if (code >= 0xD800 && code <= 0xDFFF)
            fail("surrogate pairs are not supported in spec files");
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    double
    parseNumber()
    {
        const char *const start = p_;
        if (p_ != end_ && *p_ == '-')
            ++p_;
        bool digits = false;
        auto eatDigits = [&] {
            while (p_ != end_ && *p_ >= '0' && *p_ <= '9') {
                ++p_;
                digits = true;
            }
        };
        eatDigits();
        if (p_ != end_ && *p_ == '.') {
            ++p_;
            eatDigits();
        }
        if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
            ++p_;
            if (p_ != end_ && (*p_ == '+' || *p_ == '-'))
                ++p_;
            const char *const exp_start = p_;
            eatDigits();
            if (p_ == exp_start)
                fail("malformed exponent");
        }
        if (!digits)
            fail("invalid value");
        // from_chars rounds exactly as strtod does and reads only the
        // validated token, with no copy and no locale.
        double d = 0.0;
        const auto [end, ec] = std::from_chars(start, p_, d);
        if (ec == std::errc() && end == p_)
            return d;
        return strtodToken(start);
    }

    /** The tokens from_chars declines (out of range, or a shape such
     *  as "-e5" that is no number): strtod on a copy of the token
     *  decides, so every error text and every underflow result stays
     *  what strtod gives. */
    double
    strtodToken(const char *start)
    {
        const std::string token(start, p_);
        char *end = nullptr;
        const double d = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            fail("malformed number '" + token + "'");
        if (!std::isfinite(d)) {
            // strtod overflows to +-inf, which no document can mean
            // (nor serialize back); underflow to 0 or a subnormal is
            // kept.
            p_ = start;
            fail("number '" + token + "' is out of range");
        }
        return d;
    }
};

} // namespace

Value
Value::parse(std::string_view text)
{
    Parser p(text);
    return p.parseDocument();
}

} // namespace camj::json

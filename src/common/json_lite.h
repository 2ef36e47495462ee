/**
 * @file
 * Minimal recursive-descent JSON parser for schema checks in tests and
 * offline analysis tools (tools/ultrascope).
 *
 * Parses the full JSON grammar into a tree of JsonValue nodes; any
 * syntax error throws std::runtime_error with the offending offset, so
 * a malformed dump fails the test with a useful message.  Arrays and
 * objects nest at most Parser::kMaxDepth deep: deeper input is an
 * error too, never a stack overflow.  Not for
 * production use -- no streaming, no surrogate-pair decoding (escapes
 * are kept verbatim past the basic ones).
 */

#ifndef ULTRA_COMMON_JSON_LITE_H
#define ULTRA_COMMON_JSON_LITE_H

#include <cctype>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace jsonlite
{

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    bool has(const std::string &key) const
    {
        return type == Type::Object && object.count(key) > 0;
    }

    const JsonValue &operator[](const std::string &key) const
    {
        if (!has(key))
            throw std::runtime_error("missing key: " + key);
        return object.at(key);
    }
};

class Parser
{
  public:
    /** Nesting limit, far above that of any document the repo writes. */
    static constexpr unsigned kMaxDepth = 64;

    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    value()
    {
        skipWs();
        JsonValue v;
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth_ == kMaxDepth)
                fail("nested deeper than " + std::to_string(kMaxDepth) +
                     " levels");
            ++depth_;
            v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"') {
            v.type = JsonValue::Type::String;
            v.string = parseString();
            return v;
        }
        if (consumeLiteral("true")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeLiteral("false")) {
            v.type = JsonValue::Type::Bool;
            return v;
        }
        if (consumeLiteral("null"))
            return v;
        return parseNumber();
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.type = JsonValue::Type::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            const std::string key = parseString();
            skipWs();
            expect(':');
            v.object[key] = value();
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        v.type = JsonValue::Type::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u':
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                for (int i = 0; i < 4; ++i) {
                    if (!std::isxdigit(static_cast<unsigned char>(
                            text_[pos_ + i]))) {
                        fail("bad \\u escape");
                    }
                }
                // Kept verbatim; tests only check well-formedness.
                out += "\\u";
                out.append(text_, pos_, 4);
                pos_ += 4;
                break;
              default: fail("unknown escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            fail("expected a value");
        JsonValue v;
        v.type = JsonValue::Type::Number;
        try {
            v.number = std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            fail("malformed number");
        }
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0; //!< arrays and objects open at pos_
};

inline JsonValue
parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace jsonlite

#endif // ULTRA_COMMON_JSON_LITE_H

/**
 * @file
 * The command-line surface every tool shares (ultra::cli): a strict
 * `--name value` flag parser, its number parsers, and a checked file
 * writer.  A typo or a malformed value never becomes a
 * default-configured run: a positional argument, an unknown flag, a
 * value on a boolean flag and a number that is garbage or out of range
 * all exit 2 naming the flag, then print the tool's usage line.
 */

#ifndef ULTRA_COMMON_CLI_H
#define ULTRA_COMMON_CLI_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>

namespace ultra::cli
{

/** @p text as an integer in [@p lo, @p hi].  Decimal digits only, so a
 *  sign, a space, trailing garbage or an overflow fails. */
inline std::optional<std::uint64_t>
parseInt(const std::string &text, std::uint64_t lo, std::uint64_t hi)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const std::uint64_t x = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || x < lo || x > hi)
        return std::nullopt;
    return x;
}

/** @p text as a finite number in [@p lo, @p hi]; a leading space,
 *  trailing garbage or an overflow fails. */
inline std::optional<double>
parseNumber(const std::string &text, double lo, double hi)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const double x = std::strtod(text.c_str(), &end);
    if (*end != '\0' || errno == ERANGE || !std::isfinite(x) || x < lo ||
        x > hi) {
        return std::nullopt;
    }
    return x;
}

/** "an integer in [lo, hi]". */
inline std::string
intRange(std::uint64_t lo, std::uint64_t hi)
{
    return "an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
}

/** "a number in [lo, hi]". */
inline std::string
numberRange(double lo, double hi)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "a number in [%g, %g]", lo, hi);
    return buf;
}

/** The message for a flag value that does not parse:
 *  "--NAME expects WHAT, got 'TEXT'". */
inline std::string
badValue(const std::string &name, const std::string &text,
         const std::string &what)
{
    return "--" + name + " expects " + what + ", got '" + text + "'";
}

/** Write @p content to @p path; false (with a message) on failure. */
inline bool
writeTextFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr &&
              std::fwrite(content.data(), 1, content.size(), f) ==
                  content.size();
    if (f != nullptr)
        ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
}

/** The strict flag parser: `--name value` and boolean `--name`. */
class Flags
{
  public:
    /** Parse argv[@p first..].  @p prog prefixes every message (e.g.
     *  "ultrasim net"); @p usage prints the tool's usage line. */
    Flags(std::string prog, void (*usage)(), int argc, char **argv,
          int first)
        : prog_(std::move(prog)), usage_(usage)
    {
        for (int i = first; i < argc; ++i) {
            const std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                fail("unexpected argument '" + key + "'");
            values_[key.substr(2)] =
                i + 1 < argc && argv[i + 1][0] != '-' ? argv[++i] : "";
        }
    }

    /** Print "PROG: @p msg" and the usage line, then exit 2. */
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        std::fprintf(stderr, "%s: %s\n", prog_.c_str(), msg.c_str());
        usage_();
        std::exit(2);
    }

    /** Fail on any parsed flag not in @p allowed. */
    void
    rejectUnknown(std::initializer_list<const char *> allowed) const
    {
        for (const auto &kv : values_) {
            bool known = false;
            for (const char *name : allowed)
                known = known || kv.first == name;
            if (!known)
                fail("unknown flag '--" + kv.first + "'");
        }
    }

    /** Every parsed flag, by name; a bare flag maps to "". */
    const std::map<std::string, std::string> &
    values() const
    {
        return values_;
    }

    bool has(const std::string &key) const { return values_.count(key); }

    /** Whether the boolean flag --@p key is set; a value fails. */
    bool
    flag(const std::string &key) const
    {
        auto it = values_.find(key);
        if (it != values_.end() && !it->second.empty()) {
            fail("--" + key + " takes no value, got '" + it->second +
                 "'");
        }
        return it != values_.end();
    }

    /** The value of --@p key as an integer in [0, 2^32 - 1]. */
    std::uint64_t
    getInt(const std::string &key, std::uint64_t fallback) const
    {
        return getInt(key, fallback, 0, UINT32_MAX);
    }

    /** The value of --@p key as an integer in [@p lo, @p hi]. */
    std::uint64_t
    getInt(const std::string &key, std::uint64_t fallback,
           std::uint64_t lo, std::uint64_t hi) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        const auto x = parseInt(it->second, lo, hi);
        if (!x)
            fail(badValue(key, it->second, intRange(lo, hi)));
        return *x;
    }

    /** The value of --@p key as a finite number in [@p lo, @p hi]. */
    double
    getDouble(const std::string &key, double fallback, double lo,
              double hi) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        const auto x = parseNumber(it->second, lo, hi);
        if (!x)
            fail(badValue(key, it->second, numberRange(lo, hi)));
        return *x;
    }

    std::string
    getString(const std::string &key, const std::string &fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

  private:
    std::string prog_;
    void (*usage_)();
    std::map<std::string, std::string> values_;
};

} // namespace ultra::cli

#endif // ULTRA_COMMON_CLI_H

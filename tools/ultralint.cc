/**
 * @file
 * ultralint -- determinism lint for the simulator sources (DESIGN.md
 * "Determinism lint").
 *
 * "Same seed, same bytes" is the simulator's core invariant, and the
 * sweeps rely on it.  ultralint scans the simulator sources (no
 * compiler headers needed -- a token-level C++ scanner keyed to this
 * repo's idioms) for the constructs that break it:
 *
 *     UL-DET-001  iteration over std::unordered_{map,set}
 *     UL-DET-002  rand()/time()/std::random_device and wall clocks
 *                 outside common/rng
 *     UL-DET-003  thread_local state in simulation code
 *     UL-DET-004  sorting pointers by address
 *     UL-DET-005  std::sort with a single-key comparator (tie order
 *                 falls to the library)
 *     UL-DET-006  unordered floating-point reductions
 *     UL-DET-007  raw std::chrono / clock_gettime wall-clock reads
 *                 outside src/prof, src/obs and bench (host timing
 *                 belongs behind prof::Profiler::nowNs())
 *
 * A deliberate exception carries an inline
 * `// ultralint: allow(RULE): reason` comment on (or directly above)
 * the flagged line.
 *
 * Usage:
 *   ultralint [--compdb build/compile_commands.json | --root DIR |
 *              FILE...]
 *
 * Diagnostics are deterministic (file:line sorted, byte-stable).
 * Exit status: 0 clean, 1 diagnostics emitted, 2 usage or I/O error.
 */

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace
{

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Rule tables (the repo-specific knowledge lives here).
// ---------------------------------------------------------------------

/** Nondeterminism sources for UL-DET-002 (callable identifiers). */
const char *const kRawEntropy[] = {
    "rand",         "srand",        "random_device",
    "system_clock", "high_resolution_clock",
};

/** Files exempt from UL-DET-002: the seeded RNG wrapper itself. */
const char *const kEntropyHome = "common/rng";

/** Wall-clock sources for UL-DET-007 (identifier tokens).  `#include
 *  <chrono>` is a preprocessor line and thus invisible to the lexer,
 *  but any *use* carries the `chrono` namespace token.  system_clock /
 *  high_resolution_clock already fall under UL-DET-002 (they are
 *  entropy-grade, wrong even in profiling code). */
const char *const kWallClock[] = {
    "chrono", "steady_clock", "clock_gettime", "gettimeofday",
};

/** Path fragments where host timing is sanctioned (UL-DET-007): the
 *  profiler itself, observability writers, and benchmark harnesses. */
const char *const kWallClockHomes[] = {
    "src/prof/", "src/obs/", "bench/",
};

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

enum class TokKind : std::uint8_t { Ident, Punct, Num, Str };

struct Tok
{
    TokKind kind;
    std::string text;
    int line;
};

struct SourceFile
{
    std::string path;    //!< as diagnosed (relative when possible)
    std::vector<Tok> toks;
    std::vector<std::string> rawLines;
    std::map<int, std::string> comments; //!< line -> comment text
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Tokenize C++ source.  Comments are recorded per line (for inline
 *  allow markers); preprocessor directives are skipped whole (macro
 *  *definitions* must not look like uses). */
void
lex(const std::string &text, SourceFile &out)
{
    std::size_t i = 0;
    int line = 1;
    const std::size_t n = text.size();
    bool at_line_start = true;

    auto record_comment = [&out](int at, const std::string &c) {
        std::string &slot = out.comments[at];
        slot += c;
    };

    while (i < n) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
            at_line_start = true;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '#' && at_line_start) {
            // Preprocessor directive: skip to end of line, honoring
            // continuations and trailing comments.
            while (i < n && text[i] != '\n') {
                if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                if (text[i] == '/' && i + 1 < n && text[i + 1] == '/') {
                    const std::size_t start = i;
                    while (i < n && text[i] != '\n')
                        ++i;
                    record_comment(line, text.substr(start, i - start));
                    break;
                }
                ++i;
            }
            continue;
        }
        at_line_start = false;
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            const std::size_t start = i;
            while (i < n && text[i] != '\n')
                ++i;
            record_comment(line, text.substr(start, i - start));
            continue;
        }
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            const int start_line = line;
            const std::size_t start = i;
            i += 2;
            while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
                if (text[i] == '\n')
                    ++line;
                ++i;
            }
            i = i + 2 <= n ? i + 2 : n;
            record_comment(start_line, text.substr(start, i - start));
            continue;
        }
        if (c == '"' || c == '\'') {
            const char quote = c;
            std::size_t j = i + 1;
            while (j < n && text[j] != quote) {
                if (text[j] == '\\')
                    ++j;
                if (text[j] == '\n')
                    ++line;
                ++j;
            }
            out.toks.push_back(
                {TokKind::Str, text.substr(i, j + 1 - i), line});
            i = j + 1;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i;
            while (j < n && (isIdentChar(text[j]) || text[j] == '.' ||
                             ((text[j] == '+' || text[j] == '-') &&
                              (text[j - 1] == 'e' || text[j - 1] == 'E'))))
                ++j;
            out.toks.push_back({TokKind::Num, text.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (isIdentChar(c)) {
            std::size_t j = i;
            while (j < n && isIdentChar(text[j]))
                ++j;
            out.toks.push_back(
                {TokKind::Ident, text.substr(i, j - i), line});
            i = j;
            continue;
        }
        // Multi-char punctuators the passes care about.
        static const char *const two[] = {"::", "->", "<<", ">>", "<=",
                                          ">=", "==", "!=", "&&", "||"};
        bool matched = false;
        for (const char *p : two) {
            if (i + 1 < n && text[i] == p[0] && text[i + 1] == p[1]) {
                out.toks.push_back({TokKind::Punct, p, line});
                i += 2;
                matched = true;
                break;
            }
        }
        if (matched)
            continue;
        out.toks.push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }
}

// ---------------------------------------------------------------------
// Container declarations
// ---------------------------------------------------------------------

struct ParsedFile
{
    SourceFile src;
    std::map<std::string, std::string> declTypes; //!< container decls
};

const std::set<std::string> kKeywords = {
    "if",       "for",      "while",    "switch",   "return",
    "sizeof",   "catch",    "new",      "delete",   "do",
    "else",     "case",     "goto",     "static_cast",
    "dynamic_cast", "const_cast", "reinterpret_cast", "alignof",
    "decltype", "noexcept", "throw",    "assert",   "defined",
};

/** Skip a balanced <...> starting at toks[i] == "<"; returns the index
 *  one past the closing ">".  Bails out (returns i + 1) when the angle
 *  run hits ';' or '{' -- it was a comparison, not a template. */
std::size_t
skipAngles(const std::vector<Tok> &toks, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        const std::string &t = toks[j].text;
        if (t == "<")
            ++depth;
        else if (t == ">" && --depth == 0)
            return j + 1;
        else if (t == ">>" && (depth -= 2) <= 0)
            return j + 1;
        else if (t == ";" || t == "{")
            return i + 1;
    }
    return i + 1;
}

/** Record template-container declarations (vector<...> name, map<...>
 *  name, unordered_map<...> name, ...) for the determinism rules. */
void
collectDecls(const std::vector<Tok> &toks,
             std::map<std::string, std::string> &out)
{
    static const std::set<std::string> containers = {
        "vector", "deque",         "array",         "span",
        "map",    "set",           "unordered_map", "unordered_set",
        "multimap", "unordered_multimap",
    };
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident || !containers.count(toks[i].text))
            continue;
        if (toks[i + 1].text != "<")
            continue;
        const std::size_t end = skipAngles(toks, i + 1);
        if (end <= i + 2 || end >= toks.size())
            continue;
        // Template argument text (for pointer-element detection).
        std::string args;
        for (std::size_t j = i + 2; j + 1 < end; ++j)
            args += toks[j].text;
        std::size_t j = end;
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*"))
            ++j;
        if (j < toks.size() && toks[j].kind == TokKind::Ident &&
            !kKeywords.count(toks[j].text)) {
            out[toks[j].text] = toks[i].text + "<" + args + ">";
        }
    }
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

struct Diag
{
    std::string file;
    int line;
    std::string rule;
    std::string msg;

    bool
    operator<(const Diag &o) const
    {
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        if (rule != o.rule)
            return rule < o.rule;
        return msg < o.msg;
    }
};

/** Inline `ultralint: allow(RULE...)` on the line or the line above. */
bool
inlineAllowed(const SourceFile &src, int line, const std::string &rule)
{
    auto has_marker = [&rule](const std::string &text) {
        const std::size_t at = text.find("ultralint: allow(");
        if (at == std::string::npos)
            return false;
        const std::size_t close = text.find(')', at);
        if (close == std::string::npos)
            return false;
        return text.substr(at, close - at).find(rule) != std::string::npos;
    };
    // The flagged line itself, then the contiguous comment block
    // directly above it (a marker may open a multi-line comment).
    auto it = src.comments.find(line);
    if (it != src.comments.end() && has_marker(it->second))
        return true;
    for (int l = line - 1; l >= 1; --l) {
        it = src.comments.find(l);
        if (it == src.comments.end())
            break;
        if (has_marker(it->second))
            return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

struct Analysis
{
    std::vector<ParsedFile> files;
    std::vector<Diag> diags;

    void
    emit(const ParsedFile &pf, int line, const std::string &rule,
         const std::string &msg)
    {
        if (inlineAllowed(pf.src, line, rule))
            return;
        diags.push_back({pf.src.path, line, rule, msg});
    }
};

/** UL-DET-001: iteration over unordered containers. */
void
ruleUnorderedIteration(Analysis &a)
{
    for (const ParsedFile &pf : a.files) {
        std::set<std::string> unordered;
        for (const auto &[name, type] : pf.declTypes) {
            if (type.rfind("unordered_", 0) == 0)
                unordered.insert(name);
        }
        if (unordered.empty())
            continue;
        const std::vector<Tok> &toks = pf.src.toks;
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            // Range-for: `for ( ... : expr )` with an unordered name in
            // the range expression.
            if (toks[i].text == "for" && toks[i + 1].text == "(") {
                int depth = 0;
                long colon = -1;
                std::size_t close = i + 1;
                for (std::size_t j = i + 1; j < toks.size(); ++j) {
                    if (toks[j].text == "(")
                        ++depth;
                    else if (toks[j].text == ")" && --depth == 0) {
                        close = j;
                        break;
                    } else if (toks[j].text == ":" && depth == 1)
                        colon = static_cast<long>(j);
                }
                if (colon > 0) {
                    for (std::size_t j = colon + 1; j < close; ++j) {
                        if (toks[j].kind == TokKind::Ident &&
                            unordered.count(toks[j].text)) {
                            a.emit(pf, toks[j].line, "UL-DET-001",
                                   "iteration order of '" + toks[j].text +
                                       "' (std::unordered_*) is "
                                       "nondeterministic; iterate a "
                                       "sorted view or use an ordered "
                                       "container");
                        }
                    }
                }
            }
            // Explicit begin(): `x.begin()` on an unordered container
            // (hash-order traversal however it is consumed).
            if (toks[i].kind == TokKind::Ident &&
                unordered.count(toks[i].text) &&
                (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
                toks[i + 2].text == "begin") {
                a.emit(pf, toks[i].line, "UL-DET-001",
                       "iteration order of '" + toks[i].text +
                           "' (std::unordered_*) is nondeterministic; "
                           "iterate a sorted view or use an ordered "
                           "container");
            }
        }
    }
}

std::vector<std::pair<std::size_t, std::size_t>>
callArgs(const std::vector<Tok> &toks, std::size_t open);

/** UL-DET-002: raw entropy / wall-clock sources outside common/rng. */
void
ruleRawEntropy(Analysis &a)
{
    for (const ParsedFile &pf : a.files) {
        if (pf.src.path.find(kEntropyHome) != std::string::npos)
            continue;
        const std::vector<Tok> &toks = pf.src.toks;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Ident)
                continue;
            const std::string &t = toks[i].text;
            bool hit = false;
            for (const char *src : kRawEntropy) {
                if (t == src)
                    hit = true;
            }
            // `time(...)` / `clock()` only in their libc entropy
            // shapes -- time(nullptr)/time(0)/clock() -- the words are
            // too common as member names otherwise.
            if ((t == "time" || t == "clock") && toks[i + 1].text == "(" &&
                (i == 0 || (toks[i - 1].text != "." &&
                            toks[i - 1].text != "->" &&
                            toks[i - 1].text != "::"))) {
                const auto args = callArgs(toks, i + 1);
                const bool entropy_shape =
                    args.empty() ||
                    (args.size() == 1 &&
                     args[0].second == args[0].first + 1 &&
                     (toks[args[0].first].text == "nullptr" ||
                      toks[args[0].first].text == "NULL" ||
                      toks[args[0].first].text == "0"));
                if (entropy_shape)
                    hit = true;
            }
            if (!hit)
                continue;
            if (t != "time" && t != "clock" && toks[i + 1].text != "(" &&
                toks[i + 1].text != "::" && toks[i + 1].text != ";" &&
                toks[i + 1].kind != TokKind::Ident)
                continue;
            a.emit(pf, toks[i].line, "UL-DET-002",
                   "nondeterminism source '" + t +
                       "' outside common/rng; derive from the seeded "
                       "ultra::Rng streams instead");
        }
    }
}

/** UL-DET-003: thread_local state. */
void
ruleThreadLocal(Analysis &a)
{
    for (const ParsedFile &pf : a.files) {
        for (const Tok &t : pf.src.toks) {
            if (t.kind == TokKind::Ident && t.text == "thread_local") {
                a.emit(pf, t.line, "UL-DET-003",
                       "'thread_local' state in simulation code "
                       "differs per host thread; keep state in the "
                       "component that owns it");
            }
        }
    }
}

/** UL-DET-007: raw wall-clock reads in simulation code.  A host-time
 *  read woven into simulation logic is a determinism hazard -- the run
 *  would depend on the machine, not the seed -- and it dodges the
 *  profiler's accounting.  One diagnostic per offending line (a single
 *  `std::chrono::steady_clock::now()` carries two trigger tokens). */
void
ruleWallClock(Analysis &a)
{
    for (const ParsedFile &pf : a.files) {
        bool exempt = false;
        for (const char *home : kWallClockHomes) {
            if (pf.src.path.find(home) != std::string::npos)
                exempt = true;
        }
        if (exempt)
            continue;
        int last_line = -1;
        for (const Tok &t : pf.src.toks) {
            if (t.kind != TokKind::Ident)
                continue;
            bool hit = false;
            for (const char *src : kWallClock) {
                if (t.text == src)
                    hit = true;
            }
            if (!hit || t.line == last_line)
                continue;
            last_line = t.line;
            a.emit(pf, t.line, "UL-DET-007",
                   "wall-clock source '" + t.text +
                       "' outside src/prof, src/obs or bench; route "
                       "host timing through prof::Profiler::nowNs()");
        }
    }
}

/** Split the top-level arguments of a call whose '(' is at @p open. */
std::vector<std::pair<std::size_t, std::size_t>>
callArgs(const std::vector<Tok> &toks, std::size_t open)
{
    std::vector<std::pair<std::size_t, std::size_t>> args;
    int depth = 0;
    int brackets = 0;
    std::size_t arg_start = open + 1;
    for (std::size_t j = open; j < toks.size(); ++j) {
        const std::string &t = toks[j].text;
        if (t == "(" || t == "{")
            ++depth;
        else if (t == ")" || t == "}") {
            if (--depth == 0) {
                if (j > arg_start)
                    args.emplace_back(arg_start, j);
                break;
            }
        } else if (t == "[")
            ++brackets;
        else if (t == "]")
            --brackets;
        else if (t == "," && depth == 1 && brackets == 0) {
            args.emplace_back(arg_start, j);
            arg_start = j + 1;
        }
    }
    return args;
}

/** UL-DET-004 / UL-DET-005: sort-order hazards. */
void
ruleSortHazards(Analysis &a)
{
    for (const ParsedFile &pf : a.files) {
        const std::vector<Tok> &toks = pf.src.toks;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Ident || toks[i].text != "sort" ||
                toks[i + 1].text != "(")
                continue;
            if (i >= 1 && (toks[i - 1].text == "." ||
                           toks[i - 1].text == "->"))
                continue; // member .sort() of something else
            const auto args = callArgs(toks, i + 1);
            if (args.size() < 2)
                continue;
            const int line = toks[i].line;

            // UL-DET-004: two-arg sort of a pointer-element container.
            if (args.size() == 2 &&
                toks[args[0].first].kind == TokKind::Ident) {
                const std::string &name = toks[args[0].first].text;
                auto it = pf.declTypes.find(name);
                if (it != pf.declTypes.end() &&
                    it->second.find('*') != std::string::npos) {
                    a.emit(pf, line, "UL-DET-004",
                           "sorting pointer elements of '" + name +
                               "' without a comparator orders by "
                               "address; sort a stable key instead");
                }
            }

            // UL-DET-005: lambda comparator over a single key.
            if (args.size() == 3 && toks[args[2].first].text == "[") {
                const std::size_t lb = args[2].first;
                // [caps] ( p1 , p2 ) { return L OP R ; }
                std::size_t j = lb;
                while (j < args[2].second && toks[j].text != "]")
                    ++j;
                if (j + 1 >= args[2].second || toks[j + 1].text != "(")
                    continue;
                const auto params = callArgs(toks, j + 1);
                if (params.size() != 2)
                    continue;
                auto param_name = [&](int which) {
                    // Last identifier of the parameter declaration.
                    std::string name;
                    for (std::size_t q = params[which].first;
                         q < params[which].second; ++q) {
                        if (toks[q].kind == TokKind::Ident &&
                            !kKeywords.count(toks[q].text))
                            name = toks[q].text;
                    }
                    return name;
                };
                const std::string p1 = param_name(0), p2 = param_name(1);
                if (p1.empty() || p2.empty())
                    continue;
                // Find the lambda body.
                std::size_t body = params[1].second;
                while (body < args[2].second && toks[body].text != "{")
                    ++body;
                if (body >= args[2].second)
                    continue;
                // Single `return L OP R ;` statement?
                std::vector<std::string> stmt;
                std::size_t q = body + 1;
                for (; q < args[2].second && toks[q].text != "}"; ++q)
                    stmt.push_back(toks[q].kind == TokKind::Ident &&
                                           (toks[q].text == p1 ||
                                            toks[q].text == p2)
                                       ? "@param"
                                       : toks[q].text);
                if (stmt.size() < 4 || stmt.front() != "return" ||
                    stmt.back() != ";")
                    continue;
                // Exactly one top-level comparison.
                long op = -1;
                int depth = 0;
                for (std::size_t s = 1; s + 1 < stmt.size(); ++s) {
                    if (stmt[s] == "(")
                        ++depth;
                    else if (stmt[s] == ")")
                        --depth;
                    else if (depth == 0 &&
                             (stmt[s] == "<" || stmt[s] == ">")) {
                        if (op >= 0) {
                            op = -2;
                            break;
                        }
                        op = static_cast<long>(s);
                    }
                }
                if (op <= 0)
                    continue;
                const std::vector<std::string> lhs(stmt.begin() + 1,
                                                   stmt.begin() + op);
                const std::vector<std::string> rhs(stmt.begin() + op + 1,
                                                   stmt.end() - 1);
                if (lhs == rhs) {
                    a.emit(pf, line, "UL-DET-005",
                           "std::sort with a single-key comparator: "
                           "tie order falls to the library; use "
                           "std::stable_sort or add a total-order "
                           "tie-break");
                }
            }
        }
    }
}

/** UL-DET-006: unordered floating-point reductions. */
void
ruleFpReduction(Analysis &a)
{
    for (const ParsedFile &pf : a.files) {
        const std::vector<Tok> &toks = pf.src.toks;
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Ident)
                continue;
            const std::string &t = toks[i].text;
            if (t == "execution" && toks[i + 1].text == "::" &&
                (toks[i + 2].text == "par" ||
                 toks[i + 2].text == "par_unseq" ||
                 toks[i + 2].text == "unseq")) {
                a.emit(pf, toks[i].line, "UL-DET-006",
                       "parallel execution policy reorders reductions; "
                       "floating-point sums become "
                       "schedule-dependent");
            }
            if (t == "atomic" && toks[i + 1].text == "<" &&
                (toks[i + 2].text == "double" ||
                 toks[i + 2].text == "float")) {
                a.emit(pf, toks[i].line, "UL-DET-006",
                       "atomic floating-point accumulation is "
                       "order-dependent; fold the terms in a fixed "
                       "order on one thread");
            }
            if ((t == "reduce" || t == "transform_reduce") &&
                toks[i + 1].text == "(" && i >= 1 &&
                toks[i - 1].text == "::") {
                a.emit(pf, toks[i].line, "UL-DET-006",
                       "std::" + t +
                           " makes no ordering guarantee; use "
                           "std::accumulate or a unit-order fold");
            }
        }
    }
}

// ---------------------------------------------------------------------
// File collection and driver
// ---------------------------------------------------------------------

bool
readFile(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

void
splitLines(const std::string &text, std::vector<std::string> &out)
{
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
}

/** Collect *.h / *.cc under root/src (sorted, relative paths). */
std::vector<fs::path>
collectTree(const fs::path &root)
{
    std::vector<fs::path> files;
    const fs::path src = root / "src";
    const fs::path base = fs::exists(src) ? src : root;
    for (const auto &entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file())
            continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".h" || ext == ".cc")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/** Root deduced from compile_commands.json: the directory holding the
 *  first "file" entry's `src/` ancestor. */
bool
rootFromCompdb(const fs::path &compdb, fs::path &root, std::string &err)
{
    std::string text;
    if (!readFile(compdb, text)) {
        err = "cannot open compilation database '" + compdb.string() + "'";
        return false;
    }
    // Minimal extraction: every `"file": "..."` value.
    std::size_t at = 0;
    while ((at = text.find("\"file\"", at)) != std::string::npos) {
        const std::size_t q1 = text.find('"', at + 6 + 1);
        const std::size_t q2 =
            q1 == std::string::npos ? q1 : text.find('"', q1 + 1);
        if (q2 == std::string::npos)
            break;
        const fs::path f = text.substr(q1 + 1, q2 - q1 - 1);
        for (fs::path p = f.parent_path(); !p.empty();
             p = p.parent_path()) {
            if (p.filename() == "src") {
                root = p.parent_path();
                return true;
            }
            if (p == p.parent_path())
                break;
        }
        at = q2;
    }
    err = "no src/ translation units in '" + compdb.string() + "'";
    return false;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ultralint [--compdb compile_commands.json | --root DIR |"
        " FILE...]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string compdb, rootArg;
    std::vector<std::string> explicitFiles;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](std::string &slot) {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            slot = argv[++i];
        };
        if (arg == "--compdb")
            next(compdb);
        else if (arg == "--root")
            next(rootArg);
        else if (arg == "--help") {
            usage();
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            usage();
            return 2;
        } else {
            explicitFiles.push_back(arg);
        }
    }

    std::string err;
    fs::path root;
    std::vector<fs::path> files;
    if (!explicitFiles.empty()) {
        for (const std::string &f : explicitFiles)
            files.emplace_back(f);
        std::sort(files.begin(), files.end());
    } else if (!rootArg.empty() || !compdb.empty()) {
        if (!rootArg.empty()) {
            root = rootArg;
        } else if (!rootFromCompdb(compdb, root, err)) {
            std::fprintf(stderr, "ultralint: %s\n", err.c_str());
            return 2;
        }
        if (!fs::exists(root)) {
            std::fprintf(stderr, "ultralint: no such root '%s'\n",
                         root.string().c_str());
            return 2;
        }
        files = collectTree(root);
    } else {
        usage();
        return 2;
    }

    Analysis a;

    for (const fs::path &p : files) {
        std::string text;
        if (!readFile(p, text)) {
            std::fprintf(stderr, "ultralint: cannot read '%s'\n",
                         p.string().c_str());
            return 2;
        }
        ParsedFile pf;
        pf.src.path =
            root.empty()
                ? p.generic_string()
                : fs::relative(p, root).generic_string();
        splitLines(text, pf.src.rawLines);
        lex(text, pf.src);
        collectDecls(pf.src.toks, pf.declTypes);
        a.files.push_back(std::move(pf));
    }

    ruleUnorderedIteration(a);
    ruleRawEntropy(a);
    ruleWallClock(a);
    ruleThreadLocal(a);
    ruleSortHazards(a);
    ruleFpReduction(a);

    std::sort(a.diags.begin(), a.diags.end());
    a.diags.erase(std::unique(a.diags.begin(), a.diags.end(),
                              [](const Diag &x, const Diag &y) {
                                  return x.file == y.file &&
                                         x.line == y.line &&
                                         x.rule == y.rule &&
                                         x.msg == y.msg;
                              }),
                  a.diags.end());
    for (const Diag &d : a.diags) {
        std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line,
                    d.rule.c_str(), d.msg.c_str());
    }

    if (a.diags.empty()) {
        std::printf("ultralint: clean (%zu files)\n", a.files.size());
        return 0;
    }
    std::printf("ultralint: %zu diagnostic%s\n", a.diags.size(),
                a.diags.size() == 1 ? "" : "s");
    return 1;
}

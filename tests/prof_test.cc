/**
 * @file
 * Wall-clock self-profiler (ultra::prof) unit tests: phase tiling, the
 * sorted-key JSON schema, and the network/machine wiring -- including
 * the contract that profiling never changes simulation output.
 *
 * Wall-clock magnitudes are host-dependent, so the assertions pin
 * *identities* (phase tiling vs elapsed) and *shape* (the exact key
 * set and its order), never durations.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/json_lite.h"
#include "core/machine.h"
#include "prof/profiler.h"

namespace ultra
{
namespace
{

using core::Machine;
using core::MachineConfig;
using pe::Pe;
using pe::Task;

TEST(ProfTest, PhaseNamesAreSortedAndUnique)
{
    // reportJson emits phases by enum order; the sorted-keys contract
    // therefore requires the names themselves to be sorted.
    std::vector<std::string> names;
    for (unsigned p = 0; p < prof::kPhaseCount; ++p)
        names.emplace_back(prof::phaseName(static_cast<prof::Phase>(p)));
    for (std::size_t i = 1; i < names.size(); ++i)
        EXPECT_LT(names[i - 1], names[i]) << names[i];
}

/** Assert every object's keys appear in strictly sorted order, at
 *  every nesting level. */
void
expectSortedKeys(const jsonlite::JsonValue &v, const std::string &where)
{
    if (v.isObject()) {
        std::string prev;
        for (const auto &[key, child] : v.object) {
            if (!prev.empty()) {
                EXPECT_LT(prev, key) << where;
            }
            prev = key;
            expectSortedKeys(child, where + "." + key);
        }
        // std::map iterates sorted; the real contract is that the
        // *emitted bytes* are sorted, checked below against the raw
        // text positions.
    } else if (v.isArray()) {
        for (const jsonlite::JsonValue &child : v.array)
            expectSortedKeys(child, where + "[]");
    }
}

/** Scan raw JSON text: within each object, keys must appear in
 *  ascending byte order.  A tiny bracket-matcher is enough because the
 *  report contains no strings with braces. */
void
expectEmittedKeysSorted(const std::string &text)
{
    struct Frame
    {
        std::string lastKey;
        bool isObject;
    };
    std::vector<Frame> stack;
    std::size_t i = 0;
    while (i < text.size()) {
        const char c = text[i];
        if (c == '{') {
            stack.push_back({"", true});
            ++i;
        } else if (c == '[') {
            stack.push_back({"", false});
            ++i;
        } else if (c == '}' || c == ']') {
            ASSERT_FALSE(stack.empty());
            stack.pop_back();
            ++i;
        } else if (c == '"') {
            const std::size_t close = text.find('"', i + 1);
            ASSERT_NE(close, std::string::npos);
            const std::string word = text.substr(i + 1, close - i - 1);
            std::size_t after = close + 1;
            while (after < text.size() && text[after] == ' ')
                ++after;
            const bool is_key = after < text.size() &&
                                text[after] == ':' &&
                                !stack.empty() && stack.back().isObject;
            if (is_key) {
                if (!stack.back().lastKey.empty()) {
                    EXPECT_LT(stack.back().lastKey, word);
                }
                stack.back().lastKey = word;
            }
            i = close + 1;
        } else {
            ++i;
        }
    }
}

/** The key set of object @p v. */
std::set<std::string>
keysOf(const jsonlite::JsonValue &v)
{
    std::set<std::string> keys;
    for (const auto &kv : v.object)
        keys.insert(kv.first);
    return keys;
}

TEST(ProfTest, MachineReportSchemaAndCoverage)
{
    Machine machine(MachineConfig::small(64, 2));
    machine.enableProfiling();
    const Addr ctr = machine.allocShared(1);
    machine.launchAll(16, [&](Pe &pe) -> Task {
        for (int i = 0; i < 40; ++i)
            co_await pe.fetchAdd(ctr, 1);
    });
    ASSERT_TRUE(machine.run());
    ASSERT_NE(machine.profiler(), nullptr);
    const prof::Profiler &prof = *machine.profiler();

    // Phase timers tile the run loop: their sum can never exceed the
    // measured elapsed wall, and on any host it covers most of it
    // (the acceptance bar of >= 95% on the Table-1 workload lives in
    // cli_test; here a loose 50% floor guards against a broken lap
    // chain without inviting noise flakes).
    const double elapsed = prof.elapsedSeconds();
    const double phases =
        static_cast<double>(prof.totalPhaseNs()) * 1e-9;
    EXPECT_GT(elapsed, 0.0);
    EXPECT_LE(phases, elapsed * 1.001);
    EXPECT_GE(phases, elapsed * 0.5);
    EXPECT_EQ(prof.cycles(), machine.now());

    const std::string text = prof.reportJson();
    expectEmittedKeysSorted(text);
    const jsonlite::JsonValue doc = jsonlite::parse(text);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc["schema"].string, "ultra.prof.v2");
    // The exact v2 key set: no field may appear or vanish silently.
    EXPECT_EQ(keysOf(doc),
              (std::set<std::string>{"attribution", "cycles",
                                     "elapsed_seconds", "phases",
                                     "schema"}));
    ASSERT_TRUE(doc["attribution"].isObject());
    const jsonlite::JsonValue &at = doc["attribution"];
    EXPECT_EQ(keysOf(at), (std::set<std::string>{"coverage",
                                                 "overhead_fraction"}));
    ASSERT_TRUE(doc["phases"].isObject());
    EXPECT_EQ(doc["phases"].object.size(), prof::kPhaseCount);
    for (const auto &[name, phase] : doc["phases"].object) {
        EXPECT_EQ(keysOf(phase),
                  (std::set<std::string>{"calls", "seconds"}))
            << name;
    }
    EXPECT_GT(doc["phases"]["pe.step"]["calls"].number, 0.0);
    // Fractions of elapsed wall land in [0, 1].
    for (const char *key : {"overhead_fraction", "coverage"}) {
        EXPECT_GE(at[key].number, 0.0) << key;
        EXPECT_LE(at[key].number, 1.0 + 1e-9) << key;
    }
    expectSortedKeys(doc, "report");
}

TEST(ProfTest, ProfilingDoesNotChangeSimulation)
{
    // The byte-identity contract at library level: the same program
    // with and without the profiler yields identical stats dumps and
    // identical memory results (the CLI-level golden check rides in
    // cli_test).
    auto runOnce = [](bool profiled) {
        Machine machine(MachineConfig::small(64, 2));
        if (profiled)
            machine.enableProfiling();
        const Addr ctr = machine.allocShared(1);
        machine.launchAll(8, [&](Pe &pe) -> Task {
            for (int i = 0; i < 25; ++i)
                co_await pe.fetchAdd(ctr, 1);
        });
        EXPECT_TRUE(machine.run());
        return machine.statsJson() + "|" +
               std::to_string(machine.peek(ctr)) + "|" +
               std::to_string(machine.now());
    };
    EXPECT_EQ(runOnce(false), runOnce(true));
}

TEST(ProfTest, ReportIsCallableMidRunAndEmpty)
{
    // A fresh profiler (the live `prof` inspect command can hit one
    // before the first run) must produce a complete, parseable
    // report rather than divide-by-zero garbage.
    prof::Profiler prof;
    const std::string text = prof.reportJson();
    expectEmittedKeysSorted(text);
    const jsonlite::JsonValue doc = jsonlite::parse(text);
    EXPECT_EQ(doc["schema"].string, "ultra.prof.v2");
    EXPECT_EQ(doc["cycles"].number, 0.0);
}

TEST(ProfTest, ResetClearsCounters)
{
    // One profiler serves every job of a persistent server
    // (`ultrasim serve`); reset must return it to the fresh state.
    prof::Profiler prof;
    prof.runBegin();
    prof.phaseAdd(prof::Phase::Pni, 1000);
    prof.phaseAdd(prof::Phase::PeStep, 500);
    prof.runEnd(480);
    ASSERT_GT(prof.phaseNs(prof::Phase::Pni), 0u);
    ASSERT_EQ(prof.cycles(), 480u);

    prof.reset();

    EXPECT_EQ(prof.cycles(), 0u);
    EXPECT_EQ(prof.totalPhaseNs(), 0u);
    EXPECT_EQ(prof.elapsedSeconds(), 0.0);
    for (unsigned p = 0; p < prof::kPhaseCount; ++p)
        EXPECT_EQ(prof.phaseNs(static_cast<prof::Phase>(p)), 0u);

    // The post-reset report equals a fresh profiler's report.
    EXPECT_EQ(prof.reportJson(), prof::Profiler{}.reportJson());
}

} // namespace
} // namespace ultra

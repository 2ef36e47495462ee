/**
 * @file
 * Regression tests for tools/ultralint -- the determinism lint.  Runs
 * the real binary as a subprocess against fixture sources, each
 * seeding exactly one violation of one rule ID, and asserts
 * *byte-exact* golden diagnostics plus exit codes.  The goldens are
 * deliberately brittle: diagnostic text is part of the tool's contract
 * (CI diffs depend on it being stable).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

#ifndef ULTRALINT_BIN
#error "build must define ULTRALINT_BIN (see tests/CMakeLists.txt)"
#endif
#ifndef ULTRALINT_FIXTURE_DIR
#error "build must define ULTRALINT_FIXTURE_DIR"
#endif
#ifndef ULTRALINT_SOURCE_ROOT
#error "build must define ULTRALINT_SOURCE_ROOT"
#endif

namespace
{

struct RunResult
{
    int exitCode = -1;
    std::string output;
};

/** Run ultralint with @p args from the fixture directory, capturing
 *  stdout+stderr. */
RunResult
runLint(const std::string &args)
{
    const std::string cmd = std::string("cd ") + ULTRALINT_FIXTURE_DIR +
                            " && " + ULTRALINT_BIN + " " + args + " 2>&1";
    RunResult res;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return res;
    char buf[4096];
    std::size_t n = 0;
    while ((n = fread(buf, 1, sizeof buf, pipe)) > 0)
        res.output.append(buf, n);
    const int rc = pclose(pipe);
    res.exitCode = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return res;
}

/** Expect one fixture to yield exactly one golden diagnostic line. */
void
expectSingleDiag(const std::string &fixture, const std::string &golden)
{
    const RunResult res = runLint(fixture);
    EXPECT_EQ(res.exitCode, 1) << res.output;
    EXPECT_EQ(res.output, golden + "\nultralint: 1 diagnostic\n");
}

TEST(UltralintTest, Det001UnorderedIteration)
{
    expectSingleDiag(
        "det001.cc",
        "det001.cc:13: [UL-DET-001] iteration order of 'cells' "
        "(std::unordered_*) is nondeterministic; iterate a sorted view "
        "or use an ordered container");
}

TEST(UltralintTest, Det002RawEntropy)
{
    expectSingleDiag(
        "det002.cc",
        "det002.cc:8: [UL-DET-002] nondeterminism source 'rand' outside "
        "common/rng; derive from the seeded ultra::Rng streams instead");
}

TEST(UltralintTest, Det003ThreadLocal)
{
    expectSingleDiag(
        "det003.cc",
        "det003.cc:4: [UL-DET-003] 'thread_local' state in simulation "
        "code differs per host thread; keep state in the component "
        "that owns it");
}

TEST(UltralintTest, Det004PointerSortKey)
{
    expectSingleDiag(
        "det004.cc",
        "det004.cc:18: [UL-DET-004] sorting pointer elements of 'hot' "
        "without a comparator orders by address; sort a stable key "
        "instead");
}

TEST(UltralintTest, Det005SingleKeyComparator)
{
    expectSingleDiag(
        "det005.cc",
        "det005.cc:16: [UL-DET-005] std::sort with a single-key "
        "comparator: tie order falls to the library; use "
        "std::stable_sort or add a total-order tie-break");
}

TEST(UltralintTest, Det006AtomicFloatReduction)
{
    expectSingleDiag(
        "det006.cc",
        "det006.cc:6: [UL-DET-006] atomic floating-point accumulation "
        "is order-dependent; fold the terms in a fixed order on one "
        "thread");
}

TEST(UltralintTest, Det007WallClock)
{
    // One diagnostic even though std::chrono::steady_clock carries two
    // trigger tokens on the line (per-line dedupe).
    expectSingleDiag(
        "det007.cc",
        "det007.cc:8: [UL-DET-007] wall-clock source 'chrono' outside "
        "src/prof, src/obs or bench; route host timing through "
        "prof::Profiler::nowNs()");
}

TEST(UltralintTest, CleanFixturePasses)
{
    const RunResult res = runLint("clean.cc");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_EQ(res.output, "ultralint: clean (1 files)\n");
}

TEST(UltralintTest, InlineAllowSuppresses)
{
    // allowed.cc seeds the det003 violation but carries an
    // `ultralint: allow(UL-DET-003)` marker above it.
    const RunResult res = runLint("allowed.cc");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_EQ(res.output, "ultralint: clean (1 files)\n");
}

TEST(UltralintTest, NoInputIsUsageError)
{
    EXPECT_EQ(runLint("").exitCode, 2);
}

TEST(UltralintTest, DiagnosticsAreByteStable)
{
    // Scanning every fixture at once must produce identical bytes on
    // repeated runs, file:line sorted across files.
    const std::string all = "allowed.cc clean.cc det001.cc det002.cc "
                            "det003.cc det004.cc det005.cc det006.cc "
                            "det007.cc";
    const RunResult a = runLint(all);
    const RunResult b = runLint(all);
    EXPECT_EQ(a.exitCode, 1);
    EXPECT_EQ(a.output, b.output);
    // Sorted: det001 first, det007 last among the diagnostics.
    EXPECT_EQ(a.output.find("det001.cc:13:"), 0u) << a.output;
    EXPECT_NE(a.output.find("\ndet007.cc:8:"), std::string::npos);
    EXPECT_NE(a.output.find("ultralint: 7 diagnostics\n"),
              std::string::npos);
}

TEST(UltralintTest, TreeIsClean)
{
    // The acceptance gate: the simulator tree itself yields zero
    // diagnostics.
    const RunResult res =
        runLint(std::string("--root ") + ULTRALINT_SOURCE_ROOT);
    EXPECT_EQ(res.exitCode, 0) << res.output;
}

} // namespace

/**
 * @file
 * Tests for the memory substrate: fetch-and-phi semantics (sections
 * 2.2, 2.4), the bijective address hash (section 3.1.4), and the
 * memory-module array.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "mem/address_hash.h"
#include "mem/fetch_phi.h"
#include "mem/memory_system.h"

namespace ultra::mem
{
namespace
{

TEST(FetchPhiTest, ApplySemantics)
{
    EXPECT_EQ(applyPhi(Op::Load, 5, 99), 5);
    EXPECT_EQ(applyPhi(Op::Store, 5, 99), 99);
    EXPECT_EQ(applyPhi(Op::FetchAdd, 5, 3), 8);
    EXPECT_EQ(applyPhi(Op::Swap, 5, 7), 7);
    EXPECT_EQ(applyPhi(Op::TestAndSet, 0, 0), 1);
    EXPECT_EQ(applyPhi(Op::FetchAnd, 0b1100, 0b1010), 0b1000);
    EXPECT_EQ(applyPhi(Op::FetchOr, 0b1100, 0b1010), 0b1110);
    EXPECT_EQ(applyPhi(Op::FetchMax, 4, 9), 9);
    EXPECT_EQ(applyPhi(Op::FetchMin, 4, 9), 4);
}

TEST(FetchPhiTest, DataDirections)
{
    EXPECT_FALSE(opCarriesData(Op::Load));
    EXPECT_TRUE(opCarriesData(Op::Store));
    EXPECT_TRUE(opCarriesData(Op::FetchAdd));
    EXPECT_FALSE(opCarriesData(Op::TestAndSet));
    EXPECT_TRUE(opReturnsData(Op::Load));
    EXPECT_FALSE(opReturnsData(Op::Store));
    EXPECT_TRUE(opReturnsData(Op::FetchAdd));
}

/**
 * The defining property of combining (section 3.1.3): applying the
 * combined request once must equal applying the two originals in
 * order, and decombineReply must reproduce the second request's value.
 */
class CombineAlgebraTest : public ::testing::TestWithParam<Op>
{};

TEST_P(CombineAlgebraTest, CombineMatchesSerialOrder)
{
    const Op op = GetParam();
    Rng rng(1234);
    for (int trial = 0; trial < 200; ++trial) {
        const Word x = rng.uniformRange(-1000, 1000);
        const Word e = rng.uniformRange(-100, 100);
        const Word f = rng.uniformRange(-100, 100);

        // Serial execution: phi(X, e) then phi(X, f).
        const Word y1 = x;                  // first request's return
        const Word m1 = applyPhi(op, x, e); // memory after first
        const Word y2 = m1;                 // second request's return
        const Word m2 = applyPhi(op, m1, f);

        // Combined execution.
        const Word g = combineOperands(op, e, f);
        const Word y = applyPhi(op, x, g); // memory after combined
        EXPECT_EQ(y, m2) << opName(op) << " memory mismatch";
        EXPECT_EQ(x, y1) << opName(op);
        if (op == Op::Store) {
            // Stores answer with an acknowledgement, not a value.
            EXPECT_EQ(decombineReply(op, x, e), 0);
        } else {
            EXPECT_EQ(decombineReply(op, x, e), y2)
                << opName(op) << " second reply mismatch";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllOps, CombineAlgebraTest,
                         ::testing::Values(Op::Load, Op::Store,
                                           Op::FetchAdd, Op::Swap,
                                           Op::TestAndSet, Op::FetchAnd,
                                           Op::FetchOr, Op::FetchMax,
                                           Op::FetchMin),
                         [](const auto &info) {
                             return opName(info.param);
                         });

class AddressHashTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(AddressHashTest, Bijection)
{
    const unsigned bits = GetParam();
    AddressHash hash(bits);
    const Addr space = Addr{1} << bits;
    if (bits <= 16) {
        std::vector<bool> seen(space, false);
        for (Addr v = 0; v < space; ++v) {
            const Addr p = hash.toPhysical(v);
            ASSERT_LT(p, space);
            ASSERT_FALSE(seen[p]) << "collision at " << v;
            seen[p] = true;
            ASSERT_EQ(hash.toVirtual(p), v);
        }
    } else {
        Rng rng(99);
        for (int i = 0; i < 10000; ++i) {
            const Addr v = rng.uniformInt(space);
            ASSERT_EQ(hash.toVirtual(hash.toPhysical(v)), v);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, AddressHashTest,
                         ::testing::Values(4u, 8u, 12u, 16u, 24u, 40u));

TEST(AddressHashTest, DisabledIsIdentity)
{
    AddressHash hash(16, false);
    for (Addr v = 0; v < 100; ++v)
        EXPECT_EQ(hash.toPhysical(v), v);
}

TEST(AddressHashTest, SpreadsConsecutiveAddressesAcrossModules)
{
    // The reason the hash exists: consecutive virtual addresses (an
    // array walked by one PE, or a vector hit by all PEs) must not pile
    // onto one module.
    const unsigned bits = 16;
    const std::uint32_t modules = 64;
    AddressHash hash(bits);
    std::vector<int> load(modules, 0);
    const int count = 4096;
    for (Addr v = 0; v < count; ++v)
        ++load[hash.toPhysical(v) % modules];
    const int expected = count / modules;
    for (std::uint32_t m = 0; m < modules; ++m) {
        EXPECT_GT(load[m], expected / 4) << "module " << m << " starved";
        EXPECT_LT(load[m], expected * 4) << "module " << m << " hot";
    }
}

TEST(MemorySystemTest, ModuleInterleaving)
{
    MemoryConfig cfg;
    cfg.numModules = 8;
    cfg.wordsPerModule = 16;
    MemorySystem mem(cfg);
    EXPECT_EQ(mem.totalWords(), 128u);
    EXPECT_EQ(mem.moduleOf(0), 0u);
    EXPECT_EQ(mem.moduleOf(7), 7u);
    EXPECT_EQ(mem.moduleOf(8), 0u);
    EXPECT_EQ(mem.offsetOf(17), 2u);
}

TEST(MemorySystemTest, ExecuteAppliesPhiAndReturnsOld)
{
    MemoryConfig cfg;
    cfg.numModules = 4;
    cfg.wordsPerModule = 8;
    MemorySystem mem(cfg);
    mem.poke(5, 10);
    EXPECT_EQ(mem.execute(Op::FetchAdd, 5, 7), 10);
    EXPECT_EQ(mem.peek(5), 17);
    EXPECT_EQ(mem.execute(Op::Swap, 5, 2), 17);
    EXPECT_EQ(mem.peek(5), 2);
    EXPECT_EQ(mem.execute(Op::Load, 5, 0), 2);
    EXPECT_EQ(mem.peek(5), 2);
}

TEST(MemorySystemTest, UnwrittenWordsReadZero)
{
    // Storage is sparse: a word nothing has written reads 0 both
    // directly and through the MNI adder.
    MemoryConfig cfg;
    cfg.numModules = 4;
    cfg.wordsPerModule = 8;
    MemorySystem mem(cfg);
    EXPECT_EQ(mem.peek(3), 0);
    EXPECT_EQ(mem.execute(Op::Load, 6, 0), 0);
    EXPECT_EQ(mem.execute(Op::FetchAdd, 9, 5), 0);
    EXPECT_EQ(mem.peek(9), 5);
    // Writing 0 over a written word reads 0 again, by either path.
    mem.poke(9, 0);
    EXPECT_EQ(mem.peek(9), 0);
    EXPECT_EQ(mem.execute(Op::Store, 12, 4), 0);
    EXPECT_EQ(mem.execute(Op::Store, 12, 0), 4);
    EXPECT_EQ(mem.peek(12), 0);
}

TEST(MemorySystemTest, PokePeekRoundTripAtBothEnds)
{
    MemoryConfig cfg;
    cfg.numModules = 4;
    cfg.wordsPerModule = 8;
    MemorySystem mem(cfg);
    const Addr last = mem.totalWords() - 1;
    mem.poke(0, -7);
    mem.poke(last, 41);
    EXPECT_EQ(mem.peek(0), -7);
    EXPECT_EQ(mem.peek(last), 41);
    EXPECT_EQ(mem.execute(Op::FetchAdd, last, 1), 41);
    EXPECT_EQ(mem.peek(last), 42);
    EXPECT_EQ(mem.peek(1), 0);
}

TEST(MemorySystemTest, ModuleLoadCounters)
{
    MemoryConfig cfg;
    cfg.numModules = 4;
    cfg.wordsPerModule = 8;
    MemorySystem mem(cfg);
    mem.execute(Op::Store, 0, 1);
    mem.execute(Op::Store, 4, 1);
    mem.execute(Op::Store, 1, 1);
    EXPECT_EQ(mem.moduleLoad()[0], 2u);
    EXPECT_EQ(mem.moduleLoad()[1], 1u);
    mem.resetStats();
    EXPECT_EQ(mem.moduleLoad()[0], 0u);
}

} // namespace
} // namespace ultra::mem

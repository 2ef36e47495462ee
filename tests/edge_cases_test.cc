/**
 * @file
 * Edge-case and failure-path coverage: rendering helpers, run/drain
 * timeouts, and the assertion guard rails (death tests).
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/coord.h"
#include "core/machine.h"
#include "mem/memory_system.h"
#include "net/network.h"

namespace ultra
{
namespace
{

using core::Machine;
using core::MachineConfig;
using pe::Pe;
using pe::Task;

TEST(TextTableTest, SeparatorRendersAsRule)
{
    TextTable t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    t.addSeparator();
    t.addRow({"3", "4"});
    const std::string out = t.render();
    // Header rule + top + separator + bottom = at least 4 rules.
    int rules = 0;
    for (std::size_t pos = 0; (pos = out.find("+--", pos)) !=
                              std::string::npos;
         ++pos) {
        ++rules;
    }
    EXPECT_GE(rules, 4);
}

TEST(LogTest, WarnAndInformDoNotDie)
{
    warn("this is a survivable warning: ", 42);
}

TEST(MachineTest, RunTimesOutOnSpinningProgram)
{
    Machine machine(MachineConfig::small(16, 2));
    const Addr flag = machine.allocShared(1);
    machine.launch(0, [&](Pe &pe) -> Task {
        // Wait for a flag nobody will ever set.
        while (true) {
            const Word v = co_await pe.load(flag);
            if (v != 0)
                break;
            co_await pe.compute(4);
        }
    });
    EXPECT_FALSE(machine.run(5000)) << "must time out, not hang";
    // The machine is still usable: set the flag and finish.
    machine.poke(flag, 1);
    EXPECT_TRUE(machine.run(100000));
}

TEST(NetworkTest, DrainTimesOutWhileTrafficPending)
{
    net::NetSimConfig cfg;
    cfg.numPorts = 16;
    mem::MemoryConfig mc;
    mc.numModules = 16;
    mc.wordsPerModule = 64;
    mem::MemorySystem memory(mc);
    net::Network network(cfg, memory);
    network.setDeliverCallback([](PEId, std::uint64_t, Word) {});
    ASSERT_TRUE(network.tryInject(0, net::Op::Load, 3, 0, 0));
    EXPECT_FALSE(network.drain(1)) << "one cycle cannot finish an RTT";
    EXPECT_TRUE(network.drain(1000));
}

using EdgeDeathTest = ::testing::Test;

TEST(EdgeDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("boom"), "boom");
}

TEST(EdgeDeathTest, BadMachineAddressAborts)
{
    // Storage is sparse, so only the bounds check stops a write past
    // the configured address space from quietly creating a word.
    mem::MemoryConfig mc;
    mc.numModules = 4;
    mc.wordsPerModule = 4;
    EXPECT_DEATH(
        {
            mem::MemorySystem memory(mc);
            memory.peek(16); // out of range
        },
        "out of range");
    EXPECT_DEATH(
        {
            mem::MemorySystem memory(mc);
            memory.poke(16, 1);
        },
        "out of range");
    EXPECT_DEATH(
        {
            mem::MemorySystem memory(mc);
            memory.execute(mem::Op::FetchAdd, 16, 1);
        },
        "out of range");
}

TEST(EdgeDeathTest, LaunchOnBusyPeAborts)
{
    EXPECT_DEATH(
        {
            Machine machine(MachineConfig::small(16, 2));
            const Addr a = machine.allocShared(1);
            machine.launch(0, [&](Pe &pe) -> Task {
                const Word v = co_await pe.load(a);
                (void)v;
            });
            // Relaunch without running: the first program never ran.
            machine.launch(0, [&](Pe &pe) -> Task {
                co_await pe.compute(1);
            });
        },
        "still running");
}

TEST(EdgeDeathTest, AllocBeyondMemoryAborts)
{
    EXPECT_DEATH(
        {
            MachineConfig cfg = MachineConfig::small(16, 2);
            cfg.wordsPerModule = 16;
            Machine machine(cfg);
            machine.allocShared(16 * 16 + 1, "too-big");
        },
        "exhausted");
}

} // namespace
} // namespace ultra

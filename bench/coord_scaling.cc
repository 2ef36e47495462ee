/**
 * @file
 * Coordination-cost scaling: the appendix's critical-section-free
 * algorithms measured as PEs grow -- with and without combining.
 *
 * Barrier: one fetch-and-add per PE on a single count cell plus
 * polling loads of a sense flag, the synchronization every section-5
 * program leans on.
 *
 * Parallel queue: every PE runs one appendix Insert and then one
 * Delete on a single core::ParallelQueue, all starting in cycle 0.
 * Each operation is a TIR/TDR on #Qu or #Qi, an F&A on I or D and a
 * few loads and stores, so all P PEs hammer the same four cells.  The
 * appendix claims that with combining "thousands of inserts and
 * thousands of deletes can all be accomplished in the time required
 * for just one such operation".
 *
 * Expected shape: with combining, cost grows ~logarithmically in P
 * (the F&As and polling loads combine into trees); without combining
 * the hot cells' modules serialize all P references and cost grows
 * ~linearly.
 */

#include <algorithm>
#include <cstdio>

#include "common/table.h"
#include "core/coord.h"
#include "core/machine.h"

namespace
{

using namespace ultra;
using core::Machine;
using core::MachineConfig;
using pe::Pe;
using pe::Task;

/**
 * Build the bench machine for @p pes PEs, let @p launch allocate the
 * shared structure and start the PEs, run to completion.
 * @return cycles until every PE finished.
 */
template <typename Launch>
Cycle
cyclesToFinish(std::uint32_t pes, bool combining, Launch launch)
{
    MachineConfig cfg = MachineConfig::small(
        std::max<std::uint32_t>(16, pes), 2);
    cfg.net.combinePolicy = combining ? net::CombinePolicy::Full
                                      : net::CombinePolicy::None;
    Machine machine(cfg);
    launch(machine);
    const bool finished = machine.run();
    ULTRA_ASSERT(finished, "coordination bench did not finish");
    return machine.now();
}

constexpr int kEpisodes = 12;

double
barrierCyclesPerEpisode(std::uint32_t pes, bool combining)
{
    const Cycle cycles = cyclesToFinish(pes, combining, [pes](Machine &m) {
        auto barrier = core::Barrier::create(m, pes);
        for (PEId p = 0; p < pes; ++p) {
            m.launch(p, [barrier](Pe &pe) -> Task {
                Word sense = 0;
                for (int e = 0; e < kEpisodes; ++e)
                    co_await core::barrierWait(pe, barrier, &sense);
            });
        }
    });
    return static_cast<double>(cycles) / kEpisodes;
}

/** One insert then one delete per PE on a queue of capacity @p pes. */
Cycle
queueCycles(std::uint32_t pes, bool combining)
{
    std::uint32_t failed = 0;
    const Cycle cycles =
        cyclesToFinish(pes, combining, [pes, &failed](Machine &m) {
            auto queue = core::ParallelQueue::create(m, pes);
            for (PEId p = 0; p < pes; ++p) {
                m.launch(p, [queue, p, &failed](Pe &pe) -> Task {
                    bool overflow = false;
                    co_await core::queueInsert(pe, queue, p, &overflow);
                    Word item = 0;
                    bool underflow = false;
                    co_await core::queueDelete(pe, queue, &item,
                                               &underflow);
                    failed += overflow + underflow;
                });
            }
        });
    ULTRA_ASSERT(failed == 0, "queue bench: an insert or delete failed");
    return cycles;
}

void
barrierTable()
{
    std::printf("Barrier cost per episode (sense-reversing F&A "
                "barrier, 12 episodes)\n\n");
    TextTable table;
    table.setHeader({"PEs", "combining (cycles)",
                     "no combining (cycles)", "ratio"});
    for (std::uint32_t pes : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
        const double with_comb = barrierCyclesPerEpisode(pes, true);
        const double without = barrierCyclesPerEpisode(pes, false);
        table.addRow({std::to_string(pes),
                      TextTable::fmt(with_comb, 0),
                      TextTable::fmt(without, 0),
                      TextTable::fmt(without / with_comb, 2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nexpected shape: combining keeps episode cost near "
                "O(log P) (arrivals and sense\npolls form combining "
                "trees); without it the count cell's module serializes "
                "all\nP arrivals and cost grows ~linearly in P.\n");
}

void
queueTable()
{
    std::printf("Appendix parallel queue: P PEs each insert once, then "
                "delete once, from cycle 0\n\n");
    TextTable table;
    table.setHeader({"PEs", "combining (cycles)", "vs P=1",
                     "no combining (cycles)", "ratio"});
    double one_pe = 0;
    for (std::uint32_t pes : {1u, 4u, 16u, 64u, 256u, 1024u}) {
        const double with_comb = static_cast<double>(queueCycles(pes, true));
        const double without = static_cast<double>(queueCycles(pes, false));
        if (pes == 1)
            one_pe = with_comb;
        table.addRow({std::to_string(pes), TextTable::fmt(with_comb, 0),
                      TextTable::fmt(with_comb / one_pe, 2),
                      TextTable::fmt(without, 0),
                      TextTable::fmt(without / with_comb, 2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nexpected shape: with combining, P inserts and P deletes "
                "take about the time of\none (\"vs P=1\" stays near 1); "
                "without it the modules holding I, D, #Qi and\n#Qu "
                "serialize every F&A and the time grows ~linearly in "
                "P.\n");
}

} // namespace

int
main()
{
    barrierTable();
    std::printf("\n");
    queueTable();
    return 0;
}

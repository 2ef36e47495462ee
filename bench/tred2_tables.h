/**
 * @file
 * Shared machinery for the Table 2 / Table 3 reproductions: simulate
 * parallel TRED2 for a set of measurable (P, N) pairs, fit the
 * T(P,N) = aN + dN^3/P + W model of section 5, and render the paper's
 * efficiency grid with asterisks on projected (unsimulated) entries.
 */

#ifndef ULTRA_BENCH_TRED2_TABLES_H
#define ULTRA_BENCH_TRED2_TABLES_H

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "apps/efficiency_model.h"
#include "apps/tred2.h"
#include "common/table.h"
#include "core/machine.h"

namespace ultra::bench
{

struct Tred2Study
{
    apps::EfficiencyFit fit;
    std::vector<apps::EfficiencySample> samples;
    /** Measured efficiencies keyed by (P, N). */
    std::set<std::pair<std::uint32_t, std::size_t>> measured;
    std::vector<std::array<double, 3>> measuredEff; // P, N, E
};

/** Run the measurable subset and fit the model. */
inline Tred2Study
runTred2Study()
{
    Tred2Study study;
    const std::vector<std::pair<std::uint32_t, std::size_t>> pairs = {
        {1, 16}, {2, 16}, {4, 16}, {8, 16}, {16, 16},
        {1, 24}, {4, 24}, {16, 24},
        {1, 32}, {4, 32}, {16, 32},
        {1, 48}, {8, 48}, {16, 48},
    };
    double t1_by_n[64] = {};
    for (const auto &[p, n] : pairs) {
        core::MachineConfig cfg = core::MachineConfig::small(
            std::max<std::uint32_t>(16, p), 2);
        core::Machine machine(cfg);
        const auto result = apps::tred2Parallel(
            machine, p, apps::randomSymmetric(n, 100 + n), n);
        study.samples.push_back({p, n,
                                 static_cast<double>(result.cycles),
                                 result.waitingTime});
        study.measured.insert({p, n});
        if (p == 1)
            t1_by_n[n / 8] = static_cast<double>(result.cycles);
    }
    for (const auto &s : study.samples) {
        const double t1 = t1_by_n[s.n / 8];
        if (t1 > 0.0 && s.pes > 1) {
            study.measuredEff.push_back(
                {static_cast<double>(s.pes),
                 static_cast<double>(s.n),
                 t1 / (s.pes * s.totalTime)});
        }
    }
    study.fit = apps::fitEfficiencyModel(study.samples);
    return study;
}

/** Render the paper's Table 2/3 grid from the fitted model. */
inline void
printEfficiencyGrid(const Tred2Study &study, bool include_waiting)
{
    TextTable table;
    std::vector<std::string> header = {"N \\ PE"};
    const std::vector<std::uint32_t> pe_cols = {16, 64, 256, 1024,
                                                4096};
    const std::vector<std::size_t> n_rows = {16,  32,  64,  128,
                                             256, 512, 1024};
    for (auto p : pe_cols)
        header.push_back(std::to_string(p));
    table.setHeader(header);
    for (auto n : n_rows) {
        std::vector<std::string> row = {std::to_string(n)};
        for (auto p : pe_cols) {
            double eff = study.fit.efficiency(p, n, include_waiting);
            bool projected = true;
            if (include_waiting && study.measured.count({p, n})) {
                // Use the actually-measured efficiency where we have
                // a simulation (the paper's unstarred entries).
                for (const auto &m : study.measuredEff) {
                    if (m[0] == p && m[1] == static_cast<double>(n)) {
                        eff = m[2];
                        projected = false;
                    }
                }
            }
            row.push_back(TextTable::pct(eff) +
                          (projected ? "*" : ""));
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());
    std::printf("(* = projected from the fitted model; unstarred "
                "entries were simulated)\n");
}

inline void
printFitSummary(const Tred2Study &study)
{
    std::printf("\nfitted model: T(P,N) = %.2f N + %.4f N^3/P + "
                "%.2f max(N, sqrt(P))  [cycles]\n",
                study.fit.a, study.fit.d, study.fit.w);
    std::printf("measured samples (P, N, T cycles, W cycles):\n");
    for (const auto &s : study.samples) {
        std::printf("  P=%-3u N=%-4zu T=%-10.0f W=%-8.0f  model T=%.0f\n",
                    s.pes, s.n, s.totalTime, s.waitingTime,
                    study.fit.time(s.pes, s.n, true));
    }
}

} // namespace ultra::bench

#endif // ULTRA_BENCH_TRED2_TABLES_H

#include "multigrid.h"

#include <cmath>

#include "apps/fp.h"
#include "common/log.h"
#include "core/coord.h"

namespace ultra::apps
{

namespace
{

/** Per-point instruction budget (see the header comment). */
constexpr std::uint64_t kComputePerPoint = 40;
constexpr std::uint64_t kPrivatePerPoint = 6;
constexpr std::uint64_t kOverlap = 2;

/** Jacobi sweeps before and after each coarse-grid correction. */
constexpr unsigned kPreSmooth = 2;
constexpr unsigned kPostSmooth = 2;
/** Jacobi damping factor. */
constexpr double kOmega = 0.8;

double
gridSpacing(std::size_t n)
{
    return 1.0 / static_cast<double>(n - 1);
}

/** Interior-row range [lo, hi) of PE @p t among @p num_pes. */
void
rowSplit(std::size_t n, std::uint32_t t, std::uint32_t num_pes,
         std::size_t *lo, std::size_t *hi)
{
    const std::size_t interior = n - 2;
    const std::size_t base = interior / num_pes;
    const std::size_t extra = interior % num_pes;
    *lo = 1 + t * base + std::min<std::size_t>(t, extra);
    *hi = *lo + base + (t < extra ? 1 : 0);
}

} // namespace

std::size_t
multigridSide(unsigned level)
{
    return (std::size_t{1} << level) + 1;
}

std::vector<double>
multigridRhs(unsigned level)
{
    // f = 2[x(1-x) + y(1-y)] makes u = x(1-x) y(1-y) the exact solution
    // of -lap(u) = f, and the five-point stencil is exact for it.
    const std::size_t n = multigridSide(level);
    const double h = gridSpacing(n);
    std::vector<double> f(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const double x = static_cast<double>(j) * h;
            const double y = static_cast<double>(i) * h;
            f[i * n + j] = 2.0 * (x * (1.0 - x) + y * (1.0 - y));
        }
    }
    return f;
}

double
poissonResidual(const std::vector<double> &u,
                const std::vector<double> &f, std::size_t n)
{
    const double h2 = gridSpacing(n) * gridSpacing(n);
    double worst = 0.0;
    for (std::size_t i = 1; i + 1 < n; ++i) {
        for (std::size_t j = 1; j + 1 < n; ++j) {
            const double lap =
                (4.0 * u[i * n + j] - u[(i - 1) * n + j] -
                 u[(i + 1) * n + j] - u[i * n + j - 1] -
                 u[i * n + j + 1]) /
                h2;
            worst = std::max(worst, std::fabs(f[i * n + j] - lap));
        }
    }
    return worst;
}

// --------------------------------------------------------------------
// Serial reference
// --------------------------------------------------------------------

namespace
{

void
jacobiSerial(std::vector<double> &u, const std::vector<double> &f,
             std::size_t n)
{
    const double h2 = gridSpacing(n) * gridSpacing(n);
    std::vector<double> next = u;
    for (std::size_t i = 1; i + 1 < n; ++i) {
        for (std::size_t j = 1; j + 1 < n; ++j) {
            const double gs =
                0.25 * (u[(i - 1) * n + j] + u[(i + 1) * n + j] +
                        u[i * n + j - 1] + u[i * n + j + 1] +
                        h2 * f[i * n + j]);
            next[i * n + j] =
                (1.0 - kOmega) * u[i * n + j] + kOmega * gs;
        }
    }
    u.swap(next);
}

void
residualSerial(const std::vector<double> &u,
               const std::vector<double> &f, std::size_t n,
               std::vector<double> &r)
{
    const double h2 = gridSpacing(n) * gridSpacing(n);
    r.assign(n * n, 0.0);
    for (std::size_t i = 1; i + 1 < n; ++i) {
        for (std::size_t j = 1; j + 1 < n; ++j) {
            const double lap =
                (4.0 * u[i * n + j] - u[(i - 1) * n + j] -
                 u[(i + 1) * n + j] - u[i * n + j - 1] -
                 u[i * n + j + 1]) /
                h2;
            r[i * n + j] = f[i * n + j] - lap;
        }
    }
}

void
restrictSerial(const std::vector<double> &fine, std::size_t nf,
               std::vector<double> &coarse, std::size_t nc)
{
    coarse.assign(nc * nc, 0.0);
    for (std::size_t ci = 1; ci + 1 < nc; ++ci) {
        for (std::size_t cj = 1; cj + 1 < nc; ++cj) {
            const std::size_t fi = 2 * ci;
            const std::size_t fj = 2 * cj;
            coarse[ci * nc + cj] =
                (4.0 * fine[fi * nf + fj] +
                 2.0 * (fine[(fi - 1) * nf + fj] +
                        fine[(fi + 1) * nf + fj] +
                        fine[fi * nf + fj - 1] +
                        fine[fi * nf + fj + 1]) +
                 fine[(fi - 1) * nf + fj - 1] +
                 fine[(fi - 1) * nf + fj + 1] +
                 fine[(fi + 1) * nf + fj - 1] +
                 fine[(fi + 1) * nf + fj + 1]) /
                16.0;
        }
    }
}

void
prolongAddSerial(const std::vector<double> &coarse, std::size_t nc,
                 std::vector<double> &fine, std::size_t nf)
{
    for (std::size_t i = 1; i + 1 < nf; ++i) {
        for (std::size_t j = 1; j + 1 < nf; ++j) {
            const std::size_t ci = i / 2;
            const std::size_t cj = j / 2;
            double v;
            if (i % 2 == 0 && j % 2 == 0) {
                v = coarse[ci * nc + cj];
            } else if (i % 2 == 0) {
                v = 0.5 * (coarse[ci * nc + cj] +
                           coarse[ci * nc + cj + 1]);
            } else if (j % 2 == 0) {
                v = 0.5 * (coarse[ci * nc + cj] +
                           coarse[(ci + 1) * nc + cj]);
            } else {
                v = 0.25 * (coarse[ci * nc + cj] +
                            coarse[ci * nc + cj + 1] +
                            coarse[(ci + 1) * nc + cj] +
                            coarse[(ci + 1) * nc + cj + 1]);
            }
            fine[i * nf + j] += v;
        }
    }
}

void
vcycleSerial(unsigned lev, std::vector<std::vector<double>> &u,
             std::vector<std::vector<double>> &f)
{
    const std::size_t n = multigridSide(lev);
    if (lev == 1) {
        // Single interior point: solve directly.
        const double h2 = gridSpacing(n) * gridSpacing(n);
        u[lev][1 * n + 1] = 0.25 * h2 * f[lev][1 * n + 1];
        return;
    }
    for (unsigned s = 0; s < kPreSmooth; ++s)
        jacobiSerial(u[lev], f[lev], n);
    std::vector<double> r;
    residualSerial(u[lev], f[lev], n, r);
    const std::size_t nc = multigridSide(lev - 1);
    restrictSerial(r, n, f[lev - 1], nc);
    u[lev - 1].assign(nc * nc, 0.0);
    vcycleSerial(lev - 1, u, f);
    prolongAddSerial(u[lev - 1], nc, u[lev], n);
    for (unsigned s = 0; s < kPostSmooth; ++s)
        jacobiSerial(u[lev], f[lev], n);
}

} // namespace

MultigridResult
multigridSerial(const MultigridConfig &cfg,
                const std::vector<double> &rhs)
{
    ULTRA_ASSERT(cfg.level >= 2);
    const std::size_t n = multigridSide(cfg.level);
    ULTRA_ASSERT(rhs.size() == n * n);

    std::vector<std::vector<double>> u(cfg.level + 1);
    std::vector<std::vector<double>> f(cfg.level + 1);
    for (unsigned lev = 1; lev <= cfg.level; ++lev) {
        const std::size_t s = multigridSide(lev);
        u[lev].assign(s * s, 0.0);
        f[lev].assign(s * s, 0.0);
    }
    f[cfg.level] = rhs;
    for (unsigned c = 0; c < cfg.vCycles; ++c)
        vcycleSerial(cfg.level, u, f);

    MultigridResult result;
    result.solution = u[cfg.level];
    result.residualNorm = poissonResidual(result.solution, rhs, n);
    return result;
}

// --------------------------------------------------------------------
// Parallel implementation
// --------------------------------------------------------------------

namespace
{

struct MgLayout
{
    MultigridConfig cfg;
    std::vector<Addr> u; //!< per level
    std::vector<Addr> f;
    std::vector<Addr> r;
    core::Barrier barrier;
};

/** Charged fetch of @p count consecutive shared words into @p out. */
pe::Task
fetchWords(pe::Pe &pe, Addr base, std::size_t count, double *out)
{
    for (std::size_t i = 0; i < count; ++i) {
        auto h = pe.startLoad(base + i);
        co_await pe.compute(kOverlap);
        out[i] = bitsd(co_await h);
        co_await pe.privateRefs(1);
    }
}

/** Charged store of @p count words (pipelined; caller fences). */
pe::Task
storeWords(pe::Pe &pe, Addr base, std::size_t count, const double *in)
{
    for (std::size_t i = 0; i < count; ++i) {
        pe.postStore(base + i, dbits(in[i]));
        co_await pe.compute(1);
    }
}

/** The per-point bookkeeping charge for a stencil evaluation. */
pe::Task
chargePoint(pe::Pe &pe)
{
    co_await pe.privateRefs(kPrivatePerPoint - 2);
    co_await pe.compute(kComputePerPoint - 2 * kOverlap);
}

pe::Task
jacobiPhase(pe::Pe &pe, const MgLayout &lay, unsigned lev,
            std::uint32_t t, std::uint32_t num_pes, Word *sense)
{
    const std::size_t n = multigridSide(lev);
    std::size_t lo, hi;
    rowSplit(n, t, num_pes, &lo, &hi);
    const double h2 = gridSpacing(n) * gridSpacing(n);

    std::vector<double> ublk, fblk, out;
    if (lo < hi) {
        ublk.resize((hi - lo + 2) * n);
        fblk.resize((hi - lo) * n);
        out.resize((hi - lo) * n);
        co_await fetchWords(pe, lay.u[lev] + (lo - 1) * n,
                            (hi - lo + 2) * n, ublk.data());
        co_await fetchWords(pe, lay.f[lev] + lo * n, (hi - lo) * n,
                            fblk.data());
        for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t b = i - lo + 1; // row within ublk
            out[(i - lo) * n + 0] = 0.0;
            out[(i - lo) * n + n - 1] = 0.0;
            for (std::size_t j = 1; j + 1 < n; ++j) {
                const double gs =
                    0.25 * (ublk[(b - 1) * n + j] +
                            ublk[(b + 1) * n + j] +
                            ublk[b * n + j - 1] +
                            ublk[b * n + j + 1] +
                            h2 * fblk[(i - lo) * n + j]);
                out[(i - lo) * n + j] =
                    (1.0 - kOmega) * ublk[b * n + j] + kOmega * gs;
                co_await chargePoint(pe);
            }
        }
    }
    // All PEs must finish reading old u before anyone overwrites it.
    co_await core::barrierWait(pe, lay.barrier, sense);
    if (lo < hi) {
        co_await storeWords(pe, lay.u[lev] + lo * n, (hi - lo) * n,
                            out.data());
        co_await pe.fence();
    }
    co_await core::barrierWait(pe, lay.barrier, sense);
}

pe::Task
residualPhase(pe::Pe &pe, const MgLayout &lay, unsigned lev,
              std::uint32_t t, std::uint32_t num_pes, Word *sense)
{
    const std::size_t n = multigridSide(lev);
    std::size_t lo, hi;
    rowSplit(n, t, num_pes, &lo, &hi);
    const double h2 = gridSpacing(n) * gridSpacing(n);

    if (lo < hi) {
        std::vector<double> ublk((hi - lo + 2) * n);
        std::vector<double> fblk((hi - lo) * n);
        std::vector<double> out((hi - lo) * n, 0.0);
        co_await fetchWords(pe, lay.u[lev] + (lo - 1) * n,
                            (hi - lo + 2) * n, ublk.data());
        co_await fetchWords(pe, lay.f[lev] + lo * n, (hi - lo) * n,
                            fblk.data());
        for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t b = i - lo + 1;
            for (std::size_t j = 1; j + 1 < n; ++j) {
                const double lap =
                    (4.0 * ublk[b * n + j] - ublk[(b - 1) * n + j] -
                     ublk[(b + 1) * n + j] - ublk[b * n + j - 1] -
                     ublk[b * n + j + 1]) /
                    h2;
                out[(i - lo) * n + j] =
                    fblk[(i - lo) * n + j] - lap;
                co_await chargePoint(pe);
            }
        }
        co_await storeWords(pe, lay.r[lev] + lo * n, (hi - lo) * n,
                            out.data());
        co_await pe.fence();
    }
    co_await core::barrierWait(pe, lay.barrier, sense);
}

pe::Task
restrictPhase(pe::Pe &pe, const MgLayout &lay, unsigned lev,
              std::uint32_t t, std::uint32_t num_pes, Word *sense)
{
    const std::size_t nf = multigridSide(lev);
    const std::size_t nc = multigridSide(lev - 1);
    std::size_t lo, hi;
    rowSplit(nc, t, num_pes, &lo, &hi);

    if (lo < hi) {
        // Fine rows 2*lo-1 .. 2*(hi-1)+1 inclusive.
        const std::size_t fr_lo = 2 * lo - 1;
        const std::size_t fr_n = 2 * (hi - lo) + 1;
        std::vector<double> rblk(fr_n * nf);
        std::vector<double> fout((hi - lo) * nc, 0.0);
        std::vector<double> zeros((hi - lo) * nc, 0.0);
        co_await fetchWords(pe, lay.r[lev] + fr_lo * nf, fr_n * nf,
                            rblk.data());
        for (std::size_t ci = lo; ci < hi; ++ci) {
            const std::size_t b = 2 * (ci - lo) + 1; // fine center row
            for (std::size_t cj = 1; cj + 1 < nc; ++cj) {
                const std::size_t fj = 2 * cj;
                fout[(ci - lo) * nc + cj] =
                    (4.0 * rblk[b * nf + fj] +
                     2.0 * (rblk[(b - 1) * nf + fj] +
                            rblk[(b + 1) * nf + fj] +
                            rblk[b * nf + fj - 1] +
                            rblk[b * nf + fj + 1]) +
                     rblk[(b - 1) * nf + fj - 1] +
                     rblk[(b - 1) * nf + fj + 1] +
                     rblk[(b + 1) * nf + fj - 1] +
                     rblk[(b + 1) * nf + fj + 1]) /
                    16.0;
                co_await chargePoint(pe);
            }
        }
        co_await storeWords(pe, lay.f[lev - 1] + lo * nc,
                            (hi - lo) * nc, fout.data());
        co_await storeWords(pe, lay.u[lev - 1] + lo * nc,
                            (hi - lo) * nc, zeros.data());
        co_await pe.fence();
    }
    if (t == 0) {
        // Zero the coarse boundary rows of u once per descent.
        std::vector<double> zrow(nc, 0.0);
        co_await storeWords(pe, lay.u[lev - 1], nc, zrow.data());
        co_await storeWords(pe, lay.u[lev - 1] + (nc - 1) * nc, nc,
                            zrow.data());
        co_await pe.fence();
    }
    co_await core::barrierWait(pe, lay.barrier, sense);
}

pe::Task
prolongPhase(pe::Pe &pe, const MgLayout &lay, unsigned lev,
             std::uint32_t t, std::uint32_t num_pes, Word *sense)
{
    const std::size_t nf = multigridSide(lev);
    const std::size_t nc = multigridSide(lev - 1);
    std::size_t lo, hi;
    rowSplit(nf, t, num_pes, &lo, &hi);

    if (lo < hi) {
        // Coarse rows lo/2 .. (hi-1)/2 + 1 inclusive.
        const std::size_t cr_lo = lo / 2;
        const std::size_t cr_n = (hi - 1) / 2 + 1 - cr_lo + 1;
        std::vector<double> cblk(cr_n * nc);
        std::vector<double> ublk((hi - lo) * nf);
        co_await fetchWords(pe, lay.u[lev - 1] + cr_lo * nc,
                            cr_n * nc, cblk.data());
        co_await fetchWords(pe, lay.u[lev] + lo * nf, (hi - lo) * nf,
                            ublk.data());
        for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t ci = i / 2 - cr_lo;
            for (std::size_t j = 1; j + 1 < nf; ++j) {
                const std::size_t cj = j / 2;
                double v;
                if (i % 2 == 0 && j % 2 == 0) {
                    v = cblk[ci * nc + cj];
                } else if (i % 2 == 0) {
                    v = 0.5 * (cblk[ci * nc + cj] +
                               cblk[ci * nc + cj + 1]);
                } else if (j % 2 == 0) {
                    v = 0.5 * (cblk[ci * nc + cj] +
                               cblk[(ci + 1) * nc + cj]);
                } else {
                    v = 0.25 * (cblk[ci * nc + cj] +
                                cblk[ci * nc + cj + 1] +
                                cblk[(ci + 1) * nc + cj] +
                                cblk[(ci + 1) * nc + cj + 1]);
                }
                ublk[(i - lo) * nf + j] += v;
                co_await chargePoint(pe);
            }
        }
        co_await storeWords(pe, lay.u[lev] + lo * nf, (hi - lo) * nf,
                            ublk.data());
        co_await pe.fence();
    }
    co_await core::barrierWait(pe, lay.barrier, sense);
}

pe::Task
vcyclePhase(pe::Pe &pe, const MgLayout &lay, unsigned lev,
            std::uint32_t t, std::uint32_t num_pes, Word *sense)
{
    const std::size_t n = multigridSide(lev);
    if (lev == 1) {
        if (t == 0) {
            const double h2 = gridSpacing(n) * gridSpacing(n);
            const double fc =
                bitsd(co_await pe.load(lay.f[lev] + 1 * n + 1));
            co_await pe.compute(4);
            co_await pe.store(lay.u[lev] + 1 * n + 1,
                              dbits(0.25 * h2 * fc));
        }
        co_await core::barrierWait(pe, lay.barrier, sense);
        co_return;
    }
    for (unsigned s = 0; s < kPreSmooth; ++s)
        co_await jacobiPhase(pe, lay, lev, t, num_pes, sense);
    co_await residualPhase(pe, lay, lev, t, num_pes, sense);
    co_await restrictPhase(pe, lay, lev, t, num_pes, sense);
    co_await vcyclePhase(pe, lay, lev - 1, t, num_pes, sense);
    co_await prolongPhase(pe, lay, lev, t, num_pes, sense);
    for (unsigned s = 0; s < kPostSmooth; ++s)
        co_await jacobiPhase(pe, lay, lev, t, num_pes, sense);
}

pe::Task
mgWorker(pe::Pe &pe, MgLayout lay, std::uint32_t t,
         std::uint32_t num_pes)
{
    Word sense = 0;
    for (unsigned c = 0; c < lay.cfg.vCycles; ++c)
        co_await vcyclePhase(pe, lay, lay.cfg.level, t, num_pes,
                             &sense);
}

} // namespace

MultigridResult
multigridParallel(core::Machine &machine, std::uint32_t num_pes,
                  const MultigridConfig &cfg,
                  const std::vector<double> &rhs)
{
    ULTRA_ASSERT(cfg.level >= 2);
    const std::size_t n = multigridSide(cfg.level);
    ULTRA_ASSERT(rhs.size() == n * n);
    ULTRA_ASSERT(num_pes >= 1 && num_pes <= machine.numPes());

    MgLayout lay;
    lay.cfg = cfg;
    lay.u.assign(cfg.level + 1, 0);
    lay.f.assign(cfg.level + 1, 0);
    lay.r.assign(cfg.level + 1, 0);
    for (unsigned lev = 1; lev <= cfg.level; ++lev) {
        const std::size_t s = multigridSide(lev);
        lay.u[lev] = machine.allocShared(s * s, "mg.u");
        lay.f[lev] = machine.allocShared(s * s, "mg.f");
        lay.r[lev] = machine.allocShared(s * s, "mg.r");
    }
    lay.barrier = core::Barrier::create(machine, num_pes);
    for (std::size_t i = 0; i < n * n; ++i)
        machine.poke(lay.f[cfg.level] + i, dbits(rhs[i]));

    const Cycle start = machine.now();
    for (std::uint32_t t = 0; t < num_pes; ++t) {
        machine.launch(t, [lay, t, num_pes](pe::Pe &p) {
            return mgWorker(p, lay, t, num_pes);
        });
    }
    const bool finished = machine.run();
    ULTRA_ASSERT(finished, "multigrid did not finish");

    MultigridResult result;
    result.cycles = machine.now() - start;
    result.peTotals = machine.aggregatePeStats();
    result.solution.resize(n * n);
    for (std::size_t i = 0; i < n * n; ++i)
        result.solution[i] = bitsd(machine.peek(lay.u[cfg.level] + i));
    result.residualNorm = poissonResidual(result.solution, rhs, n);
    return result;
}

} // namespace ultra::apps

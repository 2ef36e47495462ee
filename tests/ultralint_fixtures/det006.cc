// Fixture: UL-DET-006 -- atomic floating-point accumulation: the sum
// depends on the order the threads happen to arrive.

#include <atomic>

std::atomic<double> totalWait{0.0};

void
accumulate(double wait)
{
    double cur = totalWait.load();
    while (!totalWait.compare_exchange_weak(cur, cur + wait)) {
    }
}

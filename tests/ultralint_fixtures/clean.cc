// Fixture: clean -- code written to the contract; the tool must emit
// no diagnostics and exit 0.

#include <algorithm>
#include <map>
#include <vector>

class OutQueue
{
  public:
    void
    enqueue(int pkts)
    {
        used_ += pkts;
    }

    int size() const { return used_; }

  private:
    int used_ = 0;
};

struct Sample
{
    long wait = 0;
    int sw = 0;
};

void
rankSamples(std::vector<Sample> &samples)
{
    std::sort(samples.begin(), samples.end(),
              [](const Sample &a, const Sample &b) {
                  if (a.wait != b.wait)
                      return a.wait > b.wait;
                  return a.sw < b.sw;
              });
}

long
sumCells(const std::map<int, long> &cells)
{
    long total = 0;
    for (const auto &kv : cells)
        total += kv.second;
    return total;
}

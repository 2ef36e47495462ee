#include "registry.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "obs/json.h"

namespace ultra::obs
{

void
Registry::insert(Entry entry)
{
    ULTRA_ASSERT(!entry.path.empty(), "empty statistic path");
    ULTRA_ASSERT(index_.find(entry.path) == index_.end(),
                 "duplicate statistic path '", entry.path, "'");
    index_.emplace(entry.path, entries_.size());
    entries_.push_back(std::move(entry));
}

void
Registry::addScalar(const std::string &path, ValueFn fn)
{
    ULTRA_ASSERT(fn != nullptr, "scalar '", path, "' needs a getter");
    Entry entry;
    entry.path = path;
    entry.kind = Kind::Scalar;
    entry.fn = std::move(fn);
    insert(std::move(entry));
}

void
Registry::addAccumulator(const std::string &path, const Accumulator *acc)
{
    ULTRA_ASSERT(acc != nullptr, "accumulator '", path, "' is null");
    Entry entry;
    entry.path = path;
    entry.kind = Kind::Accumulator;
    entry.acc = acc;
    insert(std::move(entry));
}

void
Registry::addHistogram(const std::string &path, const Histogram *hist)
{
    ULTRA_ASSERT(hist != nullptr, "histogram '", path, "' is null");
    Entry entry;
    entry.path = path;
    entry.kind = Kind::Histogram;
    entry.hist = hist;
    insert(std::move(entry));
}

bool
Registry::has(const std::string &path) const
{
    return index_.find(path) != index_.end();
}

std::vector<std::string>
Registry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &entry : entries_)
        out.push_back(entry.path);
    return out;
}

const Registry::Entry &
Registry::find(const std::string &path) const
{
    auto it = index_.find(path);
    ULTRA_ASSERT(it != index_.end(), "unknown statistic '", path, "'");
    return entries_[it->second];
}

double
Registry::value(const std::string &path) const
{
    const Entry &entry = find(path);
    switch (entry.kind) {
      case Kind::Scalar: return entry.fn();
      case Kind::Accumulator: return entry.acc->mean();
      case Kind::Histogram: return entry.hist->mean();
    }
    return 0.0;
}

const Accumulator &
Registry::accumulator(const std::string &path) const
{
    const Entry &entry = find(path);
    ULTRA_ASSERT(entry.kind == Kind::Accumulator, "'", path,
                 "' is not an accumulator");
    return *entry.acc;
}

const Histogram &
Registry::histogram(const std::string &path) const
{
    const Entry &entry = find(path);
    ULTRA_ASSERT(entry.kind == Kind::Histogram, "'", path,
                 "' is not a histogram");
    return *entry.hist;
}

std::string
Registry::jsonDump(Cycle now, const DumpOptions &opts) const
{
    std::vector<const Entry *> order;
    order.reserve(entries_.size());
    for (const Entry &entry : entries_)
        order.push_back(&entry);
    if (opts.sortKeys) {
        // ultralint: allow(UL-DET-005): paths are unique (enforced at
        // registration), so the single key is already a total order.
        std::sort(order.begin(), order.end(),
                  [](const Entry *a, const Entry *b) {
                      return a->path < b->path;
                  });
    }

    std::ostringstream os;
    os << "{\"cycle\": " << now << ", \"stats\": {";
    bool first = true;
    for (const Entry *entry : order) {
        if (!first)
            os << (opts.pretty ? "," : ", ");
        first = false;
        if (opts.pretty)
            os << "\n  ";
        writeJsonString(os, entry->path);
        os << ": ";
        switch (entry->kind) {
          case Kind::Scalar:
            writeJsonNumber(os, entry->fn());
            break;
          case Kind::Accumulator:
            writeJsonAccumulator(os, *entry->acc);
            break;
          case Kind::Histogram:
            writeJsonHistogram(os, *entry->hist);
            break;
        }
    }
    if (opts.pretty)
        os << "\n}}\n";
    else
        os << "}}\n";
    return os.str();
}

} // namespace ultra::obs

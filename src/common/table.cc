#include "table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "log.h"

namespace ultra
{

void
TextTable::setHeader(std::vector<std::string> header)
{
    ULTRA_ASSERT(!header.empty());
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    ULTRA_ASSERT(row.size() == header_.size(),
                 "row width ", row.size(), " != header width ",
                 header_.size());
    rows_.push_back(std::move(row));
}

void
TextTable::addSeparator()
{
    rows_.emplace_back();
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto rule = [&] {
        std::string s = "+";
        for (auto w : widths)
            s += std::string(w + 2, '-') + "+";
        s += "\n";
        return s;
    };
    auto line = [&](const std::vector<std::string> &cells) {
        std::string s = "|";
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string &v = c < cells.size() ? cells[c] : "";
            s += ' ';
            s.append(widths[c] - v.size(), ' ');
            s += v;
            s += " |";
        }
        s += "\n";
        return s;
    };

    std::string out = rule() + line(header_) + rule();
    for (const auto &row : rows_)
        out += row.empty() ? rule() : line(row);
    out += rule();
    return out;
}

std::string
TextTable::fmt(double x, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, x);
    return buf;
}

std::string
TextTable::pct(double ratio, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", digits, 100.0 * ratio);
    return buf;
}

} // namespace ultra

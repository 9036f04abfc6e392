#include "power/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/log.hpp"

namespace warpcomp {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    WC_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    WC_ASSERT(cells.size() == headers_.size(),
              "row has " << cells.size() << " cells, expected "
              << headers_.size());
    rows_.push_back(std::move(cells));
}

void
TextTable::addRow(const std::string &label, const std::vector<double> &values,
                  int precision)
{
    std::vector<std::string> cells;
    cells.reserve(values.size() + 1);
    cells.push_back(label);
    for (double v : values)
        cells.push_back(fmtDouble(v, precision));
    addRow(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c == 0) {
                os << std::left << std::setw(static_cast<int>(width[c]))
                   << cells[c];
            } else {
                os << "  " << std::right
                   << std::setw(static_cast<int>(width[c])) << cells[c];
            }
        }
        os << '\n';
    };

    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
}

std::string
fmtDouble(double v, int precision)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    return ss.str();
}

std::string
fmtPercent(double fraction, int precision)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << fraction * 100.0
       << '%';
    return ss.str();
}

} // namespace warpcomp

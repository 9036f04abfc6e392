/**
 * @file
 * Plain-text table formatting shared by the bench harnesses so every
 * figure prints in the same aligned, greppable style.
 */

#ifndef WARPCOMP_POWER_REPORT_HPP
#define WARPCOMP_POWER_REPORT_HPP

#include <ostream>
#include <string>
#include <vector>

namespace warpcomp {

/**
 * Column-aligned text table. First column left-aligned (row labels),
 * remaining columns right-aligned.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row; cell count must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: label + doubles formatted to @p precision. */
    void addRow(const std::string &label, const std::vector<double> &values,
                int precision = 3);

    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision. */
std::string fmtDouble(double v, int precision = 3);

/** Format a ratio as a percentage string ("12.3%"). */
std::string fmtPercent(double fraction, int precision = 1);

} // namespace warpcomp

#endif // WARPCOMP_POWER_REPORT_HPP

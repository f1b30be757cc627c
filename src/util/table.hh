/**
 * @file
 * Aligned text tables with a parallel CSV rendering.
 *
 * Every bench binary reports its figure/table through TableWriter so the
 * human-readable table and the machine-readable CSV stay in sync.
 */

#ifndef GPSM_UTIL_TABLE_HH
#define GPSM_UTIL_TABLE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gpsm
{

/**
 * Row/column table builder.
 *
 * Cells are strings; numeric helpers format doubles with fixed
 * precision. Column widths are computed at print time.
 */
class TableWriter
{
  public:
    explicit TableWriter(std::string title) : _title(std::move(title)) {}

    /** Set the header row. Must be called before addRow. */
    void setHeader(std::vector<std::string> cols);

    /** Append one row; must match the header arity. */
    void addRow(std::vector<std::string> cells);

    /** Format helpers. */
    static std::string num(double v, int precision = 3);
    static std::string pct(double fraction, int precision = 1);
    static std::string speedup(double v) { return num(v, 2) + "x"; }

    /** Render the aligned text table. */
    std::string text() const;

    /** Render as CSV (header + rows, comma-separated, quoted as needed). */
    std::string csv() const;

    /** Print text table followed by a "# CSV" block to @p os. */
    void print(std::ostream &os, bool with_csv = true) const;

    size_t rows() const { return body.size(); }

  private:
    std::string _title;
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> body;
};

} // namespace gpsm

#endif // GPSM_UTIL_TABLE_HH

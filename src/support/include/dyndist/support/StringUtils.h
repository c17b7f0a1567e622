//===- dyndist/support/StringUtils.h - String helpers -----------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small formatting and parsing helpers shared by diagnostics, tools,
/// examples, and benches.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SUPPORT_STRINGUTILS_H
#define DYNDIST_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace dyndist {

/// printf-style formatting into a std::string.
std::string format(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Pads \p S with spaces on the right to at least \p Width columns.
std::string padRight(std::string S, size_t Width);

/// Pads \p S with spaces on the left to at least \p Width columns.
std::string padLeft(std::string S, size_t Width);

/// Parses all of \p Text as a nonnegative decimal. Rejects an empty string,
/// a sign, trailing garbage, and overflow (strtoull would silently saturate
/// to UINT64_MAX). \p Out is unspecified on failure.
bool parseU64Checked(const char *Text, uint64_t &Out);

/// The floating-point twin of parseU64Checked: all of \p Text as a finite,
/// nonnegative decimal. Rejects garbage, trailing bytes, a sign, nan, inf,
/// and out-of-range magnitudes. \p Out is unspecified on failure.
bool parseDoubleChecked(const char *Text, double &Out);

/// A fixed-column ASCII table used by benchmark harnesses to print the
/// experiment tables described in DESIGN.md. Columns auto-size to content.
class Table {
public:
  /// Sets the header row.
  void setHeader(std::vector<std::string> Cells);

  /// Appends a data row; ragged rows are allowed and padded with "".
  void addRow(std::vector<std::string> Cells);

  /// Renders the table with a separator under the header.
  std::string render() const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace dyndist

#endif // DYNDIST_SUPPORT_STRINGUTILS_H

//===- StringUtils.cpp - String helpers -----------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/support/StringUtils.h"

#include "dyndist/support/Result.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace dyndist;

std::string dyndist::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Out(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Out;
}

bool dyndist::parseU64Checked(const char *Text, uint64_t &Out) {
  if (*Text < '0' || *Text > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoull(Text, &End, 10);
  return errno != ERANGE && *End == '\0';
}

bool dyndist::parseDoubleChecked(const char *Text, double &Out) {
  // A leading digit or point: no sign, no whitespace, no "nan"/"inf".
  if ((*Text < '0' || *Text > '9') && *Text != '.')
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return errno != ERANGE && End != Text && *End == '\0' && std::isfinite(Out);
}

std::string dyndist::join(const std::vector<std::string> &Parts,
                          const std::string &Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string dyndist::padRight(std::string S, size_t Width) {
  if (S.size() < Width)
    S.append(Width - S.size(), ' ');
  return S;
}

std::string dyndist::padLeft(std::string S, size_t Width) {
  if (S.size() < Width)
    S.insert(S.begin(), Width - S.size(), ' ');
  return S;
}

std::string Error::str() const {
  const char *Name = "?";
  switch (Kind) {
  case Code::InvalidArgument:
    Name = "invalid-argument";
    break;
  case Code::Unsupported:
    Name = "unsupported";
    break;
  case Code::ObjectCrashed:
    Name = "object-crashed";
    break;
  case Code::Timeout:
    Name = "timeout";
    break;
  case Code::Unsolvable:
    Name = "unsolvable";
    break;
  case Code::ProtocolViolation:
    Name = "protocol-violation";
    break;
  }
  return std::string(Name) + ": " + Message;
}

void Table::setHeader(std::vector<std::string> Cells) {
  Header = std::move(Cells);
}

void Table::addRow(std::vector<std::string> Cells) {
  Rows.push_back(std::move(Cells));
}

std::string Table::render() const {
  // Compute column widths across header and all rows.
  std::vector<size_t> Widths;
  auto Grow = [&Widths](const std::vector<std::string> &Cells) {
    if (Cells.size() > Widths.size())
      Widths.resize(Cells.size(), 0);
    for (size_t I = 0, E = Cells.size(); I != E; ++I)
      if (Cells[I].size() > Widths[I])
        Widths[I] = Cells[I].size();
  };
  Grow(Header);
  for (const auto &Row : Rows)
    Grow(Row);

  auto RenderRow = [&Widths](const std::vector<std::string> &Cells) {
    std::string Line;
    for (size_t I = 0, E = Widths.size(); I != E; ++I) {
      if (I != 0)
        Line += "  ";
      Line += padRight(I < Cells.size() ? Cells[I] : std::string(), Widths[I]);
    }
    // Trim trailing padding.
    while (!Line.empty() && Line.back() == ' ')
      Line.pop_back();
    Line += '\n';
    return Line;
  };

  std::string Out;
  if (!Header.empty()) {
    Out += RenderRow(Header);
    size_t Total = 0;
    for (size_t W : Widths)
      Total += W;
    Total += Widths.empty() ? 0 : 2 * (Widths.size() - 1);
    Out.append(Total, '-');
    Out += '\n';
  }
  for (const auto &Row : Rows)
    Out += RenderRow(Row);
  return Out;
}

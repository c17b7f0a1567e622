//===- dyndist/sim/TraceIO.h - JSON-lines trace export ----------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON-lines export of execution traces: one record per line, keys in
/// fixed order. This is a write-only rendering for digests, diffs and
/// external tools (`dyndist-query query filter` prints it); the columnar
/// archive (TraceColumnar.h) is the only format ever read back.
///
/// Line format:
///   {"kind":"join","t":12,"subject":3,"peer":18446744073709551615,
///    "msg":0,"key":"","value":0}
///
/// Keys are escaped as JSON strings: `\"`, `\\`, `\n`, `\r`, `\t`, and
/// `\u00XX` for the remaining control bytes, so a key containing a newline
/// can never split a record across lines.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SIM_TRACEIO_H
#define DYNDIST_SIM_TRACEIO_H

#include "dyndist/sim/Trace.h"

#include <string>
#include <string_view>

namespace dyndist {

/// The wire name of \p K ("join", "send", ...).
const char *traceKindName(TraceKind K);

/// Parses a wire kind name; returns false when \p Name is not a kind.
bool traceKindFromName(const std::string &Name, TraceKind &Out);

/// Appends the JSON string-escaped form of \p S (without surrounding
/// quotes) to \p Out: `\"`, `\\`, `\n`, `\r`, `\t`, `\u00XX` for other
/// control bytes.
void appendEscapedTraceString(std::string &Out, std::string_view S);

/// Appends the JSON-lines record for \p V (including trailing newline) to
/// \p Out. Every exporter funnels through this one formatter, so the byte
/// format cannot drift.
void appendTraceJsonLine(std::string &Out, const TraceEventView &V);

/// Same line for a POD record whose key id resolves against \p Keys.
void appendTraceJsonLine(std::string &Out, const TraceRecord &R,
                         const TraceKeyTable &Keys);

/// Renders \p T as JSON lines (one record per line, trailing newline).
std::string traceToJsonLines(const Trace &T);

} // namespace dyndist

#endif // DYNDIST_SIM_TRACEIO_H

//===- TraceIO.cpp - JSON-lines trace export ------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/sim/TraceIO.h"

#include <charconv>

using namespace dyndist;

const char *dyndist::traceKindName(TraceKind K) {
  switch (K) {
  case TraceKind::Join:
    return "join";
  case TraceKind::Leave:
    return "leave";
  case TraceKind::Crash:
    return "crash";
  case TraceKind::Send:
    return "send";
  case TraceKind::Deliver:
    return "deliver";
  case TraceKind::Drop:
    return "drop";
  case TraceKind::Observe:
    return "observe";
  }
  return "?";
}

bool dyndist::traceKindFromName(const std::string &Name, TraceKind &Out) {
  if (Name == "join")
    Out = TraceKind::Join;
  else if (Name == "leave")
    Out = TraceKind::Leave;
  else if (Name == "crash")
    Out = TraceKind::Crash;
  else if (Name == "send")
    Out = TraceKind::Send;
  else if (Name == "deliver")
    Out = TraceKind::Deliver;
  else if (Name == "drop")
    Out = TraceKind::Drop;
  else if (Name == "observe")
    Out = TraceKind::Observe;
  else
    return false;
  return true;
}

void dyndist::appendEscapedTraceString(std::string &Out, std::string_view S) {
  static const char Hex[] = "0123456789abcdef";
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (U < 0x20) {
        // Remaining control bytes: \u00XX so a record can never be split
        // or truncated by its own key.
        Out += "\\u00";
        Out += Hex[U >> 4];
        Out += Hex[U & 0xF];
      } else {
        Out += C;
      }
    }
  }
}

void dyndist::appendTraceJsonLine(std::string &Out, const TraceEventView &V) {
  auto Number = [&Out](auto N) {
    char Buf[24]; // Any 64-bit integer with its sign.
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), N).ptr);
  };
  Out += "{\"kind\":\"";
  Out += traceKindName(V.Kind);
  Out += "\",\"t\":";
  Number(static_cast<unsigned long long>(V.Time));
  Out += ",\"subject\":";
  Number(static_cast<unsigned long long>(V.Subject));
  Out += ",\"peer\":";
  Number(static_cast<unsigned long long>(V.Peer));
  Out += ",\"msg\":";
  Number(V.MsgKind);
  Out += ",\"key\":\"";
  appendEscapedTraceString(Out, V.Key);
  Out += "\",\"value\":";
  Number(static_cast<long long>(V.Value));
  Out += "}\n";
}

void dyndist::appendTraceJsonLine(std::string &Out, const TraceRecord &R,
                                  const TraceKeyTable &Keys) {
  appendTraceJsonLine(Out, TraceEventView::of(R, Keys));
}

std::string dyndist::traceToJsonLines(const Trace &T) {
  std::string Out;
  for (const TraceRecord &R : T.records())
    appendTraceJsonLine(Out, R, T.keys());
  return Out;
}

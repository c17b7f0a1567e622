//===- TraceIOTest.cpp - trace export and archive round trips -------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// The JSON-lines export is checked on its bytes (escaping, one record per
// line, signed fields); what a trace must survive — every field, adversarial
// keys, derived presence — is checked through the columnar archive, the one
// format read back.
//
//===----------------------------------------------------------------------===//

#include "dyndist/sim/TraceIO.h"

#include "TraceTestUtil.h"
#include "dyndist/sim/Simulator.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace dyndist;

namespace {

Trace makeSampleTrace() {
  Trace T;
  T.append({TraceKind::Join, 0, 1, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Join, 2, 2, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Send, 3, 1, 2, 10, "", 0});
  T.append({TraceKind::Deliver, 4, 2, 1, 10, "", 0});
  T.append({TraceKind::Observe, 5, 2, InvalidProcess, 0, "otq.value", -7});
  T.append({TraceKind::Leave, 8, 2, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Crash, 9, 1, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Drop, 9, 1, 2, 11, "", 0});
  return T;
}

} // namespace

TEST(TraceIO, RoundTripPreservesEverything) {
  Trace T = makeSampleTrace();
  auto Back = columnarRoundTrip(T);
  ASSERT_TRUE(Back.ok()) << Back.error().str();
  const Trace &U = *Back;
  expectSameRecords(T, U);
  // Derived structures rebuilt identically.
  EXPECT_EQ(U.totalArrivals(), T.totalArrivals());
  EXPECT_EQ(U.maxConcurrency(), T.maxConcurrency());
  EXPECT_TRUE(U.presence().at(1).Crashed);
  // The export renders every record, one per line, in order.
  EXPECT_EQ(traceToJsonLines(U), traceToJsonLines(T));
}

TEST(TraceIO, EscapedKeysSurvive) {
  Trace T;
  T.append({TraceKind::Join, 0, 1, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Observe, 1, 1, InvalidProcess, 0,
            "weird\"key\\with stuff", 5});
  EXPECT_NE(traceToJsonLines(T).find(R"("key":"weird\"key\\with stuff")"),
            std::string::npos);
  auto Back = columnarRoundTrip(T);
  ASSERT_TRUE(Back.ok()) << Back.error().str();
  EXPECT_EQ(Back->keys().name(Back->records()[1].keyId()),
            "weird\"key\\with stuff");
}

TEST(TraceIO, EmptyTraceRoundTrips) {
  Trace T;
  EXPECT_EQ(traceToJsonLines(T), "");
  auto Back = columnarRoundTrip(T);
  ASSERT_TRUE(Back.ok()) << Back.error().str();
  EXPECT_TRUE(Back->records().empty());
}

TEST(TraceIO, FileRoundTrip) {
  Trace T = makeSampleTrace();
  std::string Path = "/tmp/dyndist_trace_io_test.dytr";
  ASSERT_TRUE(writeColumnarTraceFile(T, Path).ok());
  auto Back = readColumnarTraceFile(Path);
  ASSERT_TRUE(Back.ok()) << Back.error().str();
  EXPECT_EQ(Back->records().size(), T.records().size());
  std::remove(Path.c_str());

  EXPECT_FALSE(readColumnarTraceFile("/nonexistent/dir/x.dytr").ok());
  EXPECT_FALSE(writeColumnarTraceFile(T, "/nonexistent/dir/x.dytr").ok());
}

// Every field at its widest: the exported line's bytes are pinned.
TEST(TraceIO, JsonLineAtIntegerExtremes) {
  TraceEventView V;
  V.Kind = TraceKind::Send;
  V.Time = UINT64_MAX;
  V.Subject = 0;
  V.Peer = InvalidProcess;
  V.MsgKind = INT32_MIN;
  V.Key = "q\"\\";
  V.Value = INT64_MIN;
  std::string Out = "prefix\n";
  appendTraceJsonLine(Out, V);
  V.MsgKind = INT32_MAX;
  V.Value = INT64_MAX;
  V.Key = "";
  appendTraceJsonLine(Out, V);
  EXPECT_EQ(Out, "prefix\n"
                 R"({"kind":"send","t":18446744073709551615,"subject":0,)"
                 R"("peer":)" +
                     std::to_string(static_cast<unsigned long long>(
                         InvalidProcess)) +
                     R"(,"msg":-2147483648,"key":"q\"\\",)"
                     R"("value":-9223372036854775808})"
                     "\n"
                     R"({"kind":"send","t":18446744073709551615,"subject":0,)"
                     R"("peer":)" +
                     std::to_string(static_cast<unsigned long long>(
                         InvalidProcess)) +
                     R"(,"msg":2147483647,"key":"",)"
                     R"("value":9223372036854775807})"
                     "\n");
}

// Regression: escapeString used to escape only '"' and '\\', so a key with
// a newline split the record across two lines. Control characters must be
// escaped in the export and survive the archive.
TEST(TraceIO, ControlCharacterKeysRoundTrip) {
  Trace T;
  T.append({TraceKind::Join, 0, 1, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Observe, 1, 1, InvalidProcess, 0,
            "line1\nline2\rtab\there", 1});
  T.append({TraceKind::Observe, 2, 1, InvalidProcess, 0,
            std::string("nul\x01\x1f bytes"), 2});
  std::string Text = traceToJsonLines(T);
  // One record per line: the newline inside the key must not split it.
  size_t Lines = 0;
  for (char C : Text)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 3u);
  EXPECT_NE(Text.find(R"("key":"line1\nline2\rtab\there")"),
            std::string::npos);
  EXPECT_NE(Text.find(R"("key":"nul\u0001\u001f bytes")"),
            std::string::npos);

  auto Back = columnarRoundTrip(T);
  ASSERT_TRUE(Back.ok()) << Back.error().str();
  EXPECT_EQ(Back->keys().name(Back->records()[1].keyId()),
            "line1\nline2\rtab\there");
  EXPECT_EQ(Back->keys().name(Back->records()[2].keyId()),
            std::string("nul\x01\x1f bytes"));
}

// Regression: msg is exported signed (negative kinds are legal), so a
// negative kind must render signed and survive the archive.
TEST(TraceIO, NegativeMsgKindRoundTrips) {
  Trace T;
  T.append({TraceKind::Send, 0, 1, 2, -42, "", 0});
  T.append({TraceKind::Send, 0, 1, 2, INT32_MIN, "", 0});
  std::string Text = traceToJsonLines(T);
  EXPECT_NE(Text.find(R"("msg":-42,)"), std::string::npos);
  EXPECT_NE(Text.find(R"("msg":-2147483648,)"), std::string::npos);
  auto Back = columnarRoundTrip(T);
  ASSERT_TRUE(Back.ok()) << Back.error().str();
  EXPECT_EQ(Back->records()[0].MsgKind, -42);
  EXPECT_EQ(Back->records()[1].MsgKind, INT32_MIN);
}

// A read that fails is an error, never a silently empty trace. Reading a
// directory opens fine and then fails.
TEST(TraceIO, ReadErrorIsNotSilentEof) {
  auto R = readColumnarTraceFile("/tmp");
  ASSERT_FALSE(R.ok());
  EXPECT_FALSE(R.error().Message.empty());
}

// The archive write is atomic: the data lands in Path + ".tmp" first and
// the temp never survives, success or failure.
TEST(TraceIO, WriteIsAtomicAndLeavesNoTemp) {
  Trace T = makeSampleTrace();
  std::string Path = "/tmp/dyndist_trace_atomic_test.dytr";
  ASSERT_TRUE(writeColumnarTraceFile(T, Path).ok());
  EXPECT_EQ(std::fopen((Path + ".tmp").c_str(), "r"), nullptr);
  auto Back = readColumnarTraceFile(Path);
  ASSERT_TRUE(Back.ok());
  EXPECT_EQ(Back->records().size(), T.records().size());
  std::remove(Path.c_str());
}

TEST(TraceIO, RealSimulationTraceRoundTrips) {
  class Chatter : public Actor {
  public:
    void onStart(Context &Ctx) override {
      Ctx.observe(TraceKey::OtqValue, static_cast<int64_t>(Ctx.self()));
    }
  };
  Simulator S(31);
  for (int I = 0; I != 6; ++I)
    S.spawn(std::make_unique<Chatter>());
  S.scheduleAt(5, [](Simulator &Sim) { Sim.crash(2); });
  S.run();
  auto Back = columnarRoundTrip(S.trace());
  ASSERT_TRUE(Back.ok()) << Back.error().str();
  expectSameRecords(S.trace(), *Back);
  EXPECT_EQ(observationsOf(*Back, keyNameOf(TraceKey::OtqValue)).size(), 6u);
}

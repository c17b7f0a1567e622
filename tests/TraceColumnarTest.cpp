//===- TraceColumnarTest.cpp - columnar trace format tests ----------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/sim/TraceColumnar.h"

#include "TraceTestUtil.h"
#include "dyndist/runtime/KernelLoad.h"
#include "dyndist/runtime/TraceQuery.h"
#include "dyndist/sim/Simulator.h"
#include "dyndist/sim/TraceIO.h"
#include "dyndist/support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <unordered_set>

#include <unistd.h>

using namespace dyndist;

namespace {

// Pid-unique so concurrent ctest processes from this binary don't race
// on a shared fixture file.
const std::string TestPathStr = "/tmp/dyndist_columnar_test." +
                                std::to_string(::getpid()) + ".dytr";
const char *TestPath = TestPathStr.c_str();

/// Deletes the fixture file (and its temp) after each test.
struct FileGuard {
  ~FileGuard() {
    std::remove(TestPath);
    std::remove((std::string(TestPath) + ".tmp").c_str());
  }
};

/// Adversarial key pool: quotes, backslashes, newlines, empty, long,
/// control bytes, repeated (string-table hits).
std::string randomKey(Rng &R) {
  switch (R.nextBelow(8)) {
  case 0:
    return "";
  case 1:
    return "plain.key";
  case 2:
    return "with\"quote";
  case 3:
    return "back\\slash";
  case 4:
    return "new\nline\r\t";
  case 5:
    return std::string("\x01\x02\x1f ctrl");
  case 6:
    return std::string(300, 'k'); // Long key.
  default:
    return "shared." + std::to_string(R.nextBelow(4));
  }
}

/// A random trace with nondecreasing times and adversarial field values.
/// Leave/Crash only ever target currently-joined subjects (Trace::append
/// asserts presence bookkeeping).
Trace randomTrace(uint64_t Seed, size_t Events) {
  Rng R(Seed);
  Trace T;
  std::unordered_set<ProcessId> Joined;
  SimTime Clock = 0;
  for (size_t I = 0; I != Events; ++I) {
    if (R.nextBernoulli(0.3))
      Clock += R.nextBelow(1000); // Occasional large gaps.
    TraceEvent E;
    E.Kind = static_cast<TraceKind>(R.nextBelow(7));
    E.Time = Clock;
    E.Subject = R.nextBernoulli(0.1) ? InvalidProcess : R.nextBelow(1000);
    if (E.Kind == TraceKind::Leave || E.Kind == TraceKind::Crash) {
      if (!Joined.count(E.Subject))
        E.Kind = TraceKind::Join;
      else
        Joined.erase(E.Subject);
    }
    if (E.Kind == TraceKind::Join)
      Joined.insert(E.Subject);
    E.Peer = R.nextBernoulli(0.3) ? InvalidProcess : R.nextBelow(1000);
    E.MsgKind = R.nextBernoulli(0.1) ? -static_cast<int>(R.nextBelow(1000))
                                     : static_cast<int>(R.nextBelow(1000));
    E.Key = randomKey(R);
    switch (R.nextBelow(5)) {
    case 0:
      E.Value = INT64_MIN;
      break;
    case 1:
      E.Value = INT64_MAX;
      break;
    case 2:
      E.Value = -static_cast<int64_t>(R.nextBelow(1U << 20));
      break;
    default:
      E.Value = static_cast<int64_t>(R.nextBelow(1U << 20));
    }
    T.append(std::move(E));
  }
  return T;
}

std::vector<unsigned char> readFileBytes(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr);
  std::vector<unsigned char> Data;
  unsigned char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Data.insert(Data.end(), Buf, Buf + Got);
  std::fclose(F);
  return Data;
}

void writeFileBytes(const std::string &Path,
                    const std::vector<unsigned char> &Data) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  if (!Data.empty()) { // fwrite(nullptr, ...) is UB even for zero bytes.
    ASSERT_EQ(std::fwrite(Data.data(), 1, Data.size(), F), Data.size());
  }
  std::fclose(F);
}

/// The gossip + churn KernelLoad the trace contracts are pinned at.
KernelLoadConfig kernelLoad(size_t Processes, unsigned Shards) {
  KernelLoadConfig Cfg;
  Cfg.Processes = Processes;
  Cfg.Horizon = 60;
  Cfg.GossipEvery = 4;
  Cfg.GossipFanout = 2;
  Cfg.ChurnEvery = 25;
  Cfg.Shards = Shards;
  return Cfg;
}

/// Forwards one event at a time: the inherited appendBatch() materializes
/// each record and calls append(), so a run through this sink feeds the
/// writer exactly the per-event protocol.
class PerEventSink final : public TraceSink {
public:
  explicit PerEventSink(ColumnarTraceWriter &W) : W(W) {}
  void append(const TraceEvent &E) override { W.append(E); }

private:
  ColumnarTraceWriter &W;
};

/// Runs \p Cfg at \p Level into a columnar archive at \p Path and returns
/// the file's bytes. With \p PerEvent the writer sits behind PerEventSink;
/// otherwise it is the run's sink and takes the kernel's batches (up to
/// 64K records each).
std::vector<unsigned char> archiveRun(KernelLoadConfig Cfg, TraceLevel Level,
                                      const std::string &Path,
                                      bool PerEvent = false) {
  ColumnarTraceWriter W;
  EXPECT_TRUE(W.open(Path).ok());
  PerEventSink Forward(W);
  Cfg.Sink = PerEvent ? static_cast<TraceSink *>(&Forward) : &W;
  runKernelLoad(Cfg, Level);
  EXPECT_TRUE(W.close().ok());
  auto Bytes = readFileBytes(Path);
  std::remove(Path.c_str());
  return Bytes;
}

} // namespace

// Property: Trace -> columnar -> Trace is the identity, and the JSON-lines
// export of the read-back trace is the export of the original, for
// randomized traces with adversarial keys and extreme values.
TEST(TraceColumnar, RandomizedRoundTripBothFormats) {
  FileGuard G;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Trace T = randomTrace(Seed, 500 + Seed * 137);
    ASSERT_TRUE(writeColumnarTraceFile(T, TestPath).ok());
    auto FromColumnar = readColumnarTraceFile(TestPath);
    ASSERT_TRUE(FromColumnar.ok()) << FromColumnar.error().str();
    expectSameRecords(T, *FromColumnar);
    EXPECT_EQ(traceToJsonLines(*FromColumnar), traceToJsonLines(T));
  }
}

TEST(TraceColumnar, EmptyTraceRoundTrips) {
  FileGuard G;
  Trace T;
  ASSERT_TRUE(writeColumnarTraceFile(T, TestPath).ok());
  auto R = readColumnarTraceFile(TestPath);
  ASSERT_TRUE(R.ok()) << R.error().str();
  EXPECT_TRUE(R->records().empty());
  // Even an empty archive is framed: magic, an empty index, and the tail.
  auto Bytes = readFileBytes(TestPath);
  ASSERT_GE(Bytes.size(), 8u);
  EXPECT_EQ(std::string(Bytes.begin(), Bytes.begin() + 8), "DYTRCOL1");
}

// Chunk framing: > 64K events spill into multiple chunks whose metadata
// (count, time extent, kind bitmap) matches the events they frame.
TEST(TraceColumnar, MultiChunkFramingAndMetadata) {
  FileGuard G;
  const size_t Events = 150'000; // 3 chunks: 64K + 64K + remainder.
  Trace T = randomTrace(99, Events);
  ASSERT_TRUE(writeColumnarTraceFile(T, TestPath).ok());

  auto Reader = ColumnarTraceReader::open(TestPath);
  ASSERT_TRUE(Reader.ok()) << Reader.error().str();
  EXPECT_EQ((*Reader)->totalEvents(), Events);
  ASSERT_EQ((*Reader)->chunkCount(), 3u);
  EXPECT_EQ((*Reader)->chunk(0).EventCount,
            ColumnarTraceWriter::EventsPerChunk);
  EXPECT_EQ((*Reader)->chunk(1).EventCount,
            ColumnarTraceWriter::EventsPerChunk);
  EXPECT_EQ((*Reader)->chunk(2).EventCount,
            Events - 2 * ColumnarTraceWriter::EventsPerChunk);

  size_t At = 0;
  ColumnBatch B;
  for (size_t C = 0; C != 3; ++C) {
    const ColumnarChunkInfo &Info = (*Reader)->chunk(C);
    Status S = (*Reader)->decodeChunk(C, B);
    ASSERT_TRUE(S.ok()) << S.error().str();
    ASSERT_EQ(B.size(), Info.EventCount);
    uint32_t Mask = 0;
    for (size_t I = 0; I != B.size(); ++I) {
      const TraceRecord &E = T.records()[At++];
      ASSERT_EQ(B.Time[I], E.Time);
      ASSERT_EQ(B.view(I).Key, T.keys().name(E.keyId()));
      Mask |= 1u << B.Kind[I];
    }
    EXPECT_EQ(Mask, Info.KindMask);
    EXPECT_EQ(B.Time.front(), Info.MinTime);
    EXPECT_EQ(B.Time.back(), Info.MaxTime);
  }
  EXPECT_EQ(At, Events);
}

// The chunk framing is a pure function of the event stream: writing the
// same events through a sink one-by-one or via writeColumnarTraceFile
// produces byte-identical files. Live input too: an n = 10^4 run streamed
// into the writer as its sink (kernel batches of up to 64K records) equals
// the same run through a sink that forwards one event at a time.
TEST(TraceColumnar, FramingIsAppendScheduleInvariant) {
  FileGuard G;
  Trace T = randomTrace(7, 70'000);
  ASSERT_TRUE(writeColumnarTraceFile(T, TestPath).ok());
  auto Bytes1 = readFileBytes(TestPath);

  std::string Path2 = std::string(TestPath) + ".b";
  ColumnarTraceWriter W;
  ASSERT_TRUE(W.open(Path2).ok());
  for (const TraceRecord &R : T.records()) {
    TraceEventView V = TraceEventView::of(R, T.keys());
    W.append({V.Kind, V.Time, V.Subject, V.Peer, V.MsgKind, std::string(V.Key),
              V.Value});
  }
  ASSERT_TRUE(W.close().ok());
  auto Bytes2 = readFileBytes(Path2);
  std::remove(Path2.c_str());
  EXPECT_EQ(Bytes1, Bytes2);

  for (unsigned K : {1u, 2u, 4u}) {
    auto Batched = archiveRun(kernelLoad(10'000, K), TraceLevel::Full, Path2);
    auto PerEvent = archiveRun(kernelLoad(10'000, K), TraceLevel::Full, Path2,
                               /*PerEvent=*/true);
    EXPECT_GT(Batched.size(), 40u);
    EXPECT_EQ(Batched, PerEvent) << "shards=" << K;
  }
}

// A kernel run with a columnar sink streams exactly the events an
// unsinked run accumulates in trace(), and trace() stays empty.
TEST(TraceColumnar, SinkMatchesInMemoryTraceInLiveSimulator) {
  FileGuard G;
  KernelLoadConfig Cfg;
  Cfg.Processes = 200;
  Cfg.Horizon = 80;
  Cfg.GossipEvery = 4;
  Cfg.GossipFanout = 2;
  Cfg.ChurnEvery = 25;

  // Reference run: in-memory trace.
  KernelLoadResult InMem = runKernelLoad(Cfg, TraceLevel::Full);
  ASSERT_GT(InMem.TraceRecords, 0u);

  std::string SinkPath = std::string(TestPath) + ".sink";
  ColumnarTraceWriter W;
  ASSERT_TRUE(W.open(SinkPath).ok());
  KernelLoadConfig SinkCfg = Cfg;
  SinkCfg.Sink = &W;
  KernelLoadResult Sunk = runKernelLoad(SinkCfg, TraceLevel::Full);
  ASSERT_TRUE(W.close().ok());

  // Sink mode: same schedule, no in-memory records.
  EXPECT_EQ(Sunk.Stats.EventsExecuted, InMem.Stats.EventsExecuted);
  EXPECT_EQ(Sunk.TraceRecords, 0u);
  EXPECT_EQ(W.eventsWritten(), InMem.TraceRecords);
  std::remove(SinkPath.c_str());
}

// Sharded runs produce byte-identical columnar files at any K, at Full and
// at Lifecycle tracing, for n = 300 and n = 10^4. And TraceLevel changes
// recording, never the schedule: the lifecycle-kind projection of the Full
// file, rewritten through a fresh writer, is the Lifecycle file byte for
// byte.
TEST(TraceColumnar, ShardCountInvariantFiles) {
  FileGuard G;
  std::string ProjPath = std::string(TestPath) + ".proj";
  for (size_t Processes : {size_t(300), size_t(10'000)}) {
    std::vector<unsigned char> Full, Lifecycle;
    for (unsigned K : {1u, 2u, 4u}) {
      auto F = archiveRun(kernelLoad(Processes, K), TraceLevel::Full, TestPath);
      auto L = archiveRun(kernelLoad(Processes, K), TraceLevel::Lifecycle,
                          TestPath);
      EXPECT_GT(F.size(), 40u);
      if (Full.empty()) {
        Full = std::move(F);
        Lifecycle = std::move(L);
        continue;
      }
      EXPECT_EQ(F, Full) << "n=" << Processes << " shards=" << K;
      EXPECT_EQ(L, Lifecycle) << "n=" << Processes << " shards=" << K;
    }

    writeFileBytes(TestPath, Full);
    auto Reader = ColumnarTraceReader::open(TestPath);
    ASSERT_TRUE(Reader.ok()) << Reader.error().str();
    ColumnarTraceWriter Proj;
    ASSERT_TRUE(Proj.open(ProjPath).ok());
    ColumnBatch B;
    for (size_t C = 0, N = (*Reader)->chunkCount(); C != N; ++C) {
      Status S = (*Reader)->decodeChunk(C, B);
      ASSERT_TRUE(S.ok()) << S.error().str();
      for (size_t I = 0; I != B.size(); ++I) {
        TraceEventView V = B.view(I);
        if (V.Kind == TraceKind::Join || V.Kind == TraceKind::Leave ||
            V.Kind == TraceKind::Crash || V.Kind == TraceKind::Observe)
          Proj.append({V.Kind, V.Time, V.Subject, V.Peer, V.MsgKind,
                       std::string(V.Key), V.Value});
      }
    }
    ASSERT_TRUE(Proj.close().ok());
    EXPECT_EQ(readFileBytes(ProjPath), Lifecycle) << "n=" << Processes;
    std::remove(ProjPath.c_str());
  }
}

// Out-of-order appends are a deferred close() error, never a crash or a
// silently-written file.
TEST(TraceColumnar, OutOfOrderAppendRejectedAtClose) {
  FileGuard G;
  ColumnarTraceWriter W;
  ASSERT_TRUE(W.open(TestPath).ok());
  W.append({TraceKind::Join, 10, 1, InvalidProcess, 0, "", 0});
  W.append({TraceKind::Join, 5, 2, InvalidProcess, 0, "", 0});
  Status S = W.close();
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().Message.find("out of time order"), std::string::npos);
  EXPECT_EQ(std::fopen(TestPath, "r"), nullptr); // Nothing left behind.
}

// An unclosed writer (abandoned run) leaves no file at all.
TEST(TraceColumnar, AbandonedWriterLeavesNoFiles) {
  {
    ColumnarTraceWriter W;
    ASSERT_TRUE(W.open(TestPath).ok());
    W.append({TraceKind::Join, 0, 1, InvalidProcess, 0, "", 0});
  }
  EXPECT_EQ(std::fopen(TestPath, "r"), nullptr);
  EXPECT_EQ(std::fopen((std::string(TestPath) + ".tmp").c_str(), "r"),
            nullptr);
}

//===----------------------------------------------------------------------===//
// Corrupt-file suite: every mutilation is a clean Status error, never a
// crash, assert, or silently-truncated result.
//===----------------------------------------------------------------------===//

namespace {

/// Writes a healthy two-chunk file and returns its bytes.
std::vector<unsigned char> healthyFileBytes() {
  Trace T = randomTrace(5, 70'000);
  EXPECT_TRUE(writeColumnarTraceFile(T, TestPath).ok());
  return readFileBytes(TestPath);
}

void expectOpenFails(const std::vector<unsigned char> &Bytes,
                     const char *Label) {
  writeFileBytes(TestPath, Bytes);
  auto R = ColumnarTraceReader::open(TestPath);
  EXPECT_FALSE(R.ok()) << Label;
  if (!R.ok()) {
    EXPECT_NE(R.error().Message.find("corrupt"), std::string::npos) << Label;
  }
}

} // namespace

TEST(TraceColumnar, CorruptFilesRejectedCleanly) {
  FileGuard G;
  std::vector<unsigned char> Good = healthyFileBytes();

  // Truncations at every structural boundary.
  for (size_t Keep :
       {size_t(0), size_t(4), size_t(8), size_t(40), Good.size() / 2,
        Good.size() - 1, Good.size() - 33}) {
    std::vector<unsigned char> Cut(Good.begin(), Good.begin() + Keep);
    expectOpenFails(Cut, "truncation");
  }

  // Bad file magic.
  {
    auto Bad = Good;
    Bad[0] ^= 0xFF;
    expectOpenFails(Bad, "file magic");
  }
  // Bad tail magic.
  {
    auto Bad = Good;
    Bad[Bad.size() - 1] ^= 0xFF;
    expectOpenFails(Bad, "tail magic");
  }
  // Index offset pointing into nowhere.
  {
    auto Bad = Good;
    Bad[Bad.size() - 32] ^= 0x5A;
    expectOpenFails(Bad, "index offset");
  }
  // Chunk magic destroyed.
  {
    auto Bad = Good;
    Bad[8] ^= 0xFF;
    expectOpenFails(Bad, "chunk magic");
  }
  // Chunk event count disagrees with the index.
  {
    auto Bad = Good;
    Bad[12] ^= 0x01;
    expectOpenFails(Bad, "chunk event count");
  }
}

TEST(TraceColumnar, CorruptColumnPayloadRejectedCleanly) {
  FileGuard G;
  std::vector<unsigned char> Good = healthyFileBytes();

  // Flip bytes inside the first chunk's column payload (past the 60-byte
  // chunk header at offset 8). Frame metadata stays intact, so open()
  // succeeds and the damage must surface as a decodeChunk error or as
  // different-but-bounded decoded values — never a crash or overrun.
  size_t PayloadStart = 8 + 60;
  Rng R(17);
  for (int Trial = 0; Trial != 24; ++Trial) {
    auto Bad = Good;
    size_t At = PayloadStart + R.nextBelow(2000);
    Bad[At] ^= static_cast<unsigned char>(1 + R.nextBelow(255));
    writeFileBytes(TestPath, Bad);
    auto Opened = ColumnarTraceReader::open(TestPath);
    if (!Opened.ok())
      continue; // Damage hit something open() validates: fine.
    ColumnBatch B;
    Status S = (*Opened)->decodeChunk(0, B);
    // Either a clean decode error or a full decode; both are acceptable,
    // crashing is not.
    if (S.ok()) {
      EXPECT_EQ(B.size(), (*Opened)->chunk(0).EventCount);
    }
    // The same holds when the damaged records are rebuilt into a Trace: a
    // flipped id or kind is an error, never an assert.
    auto Back = readColumnarTraceFile(TestPath);
    if (!Back.ok()) {
      EXPECT_NE(Back.error().Message.find("corrupt"), std::string::npos);
    }
  }
}

namespace {

void putVarint(std::vector<unsigned char> &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<unsigned char>((V & 0x7F) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<unsigned char>(V));
}

void putLE(std::vector<unsigned char> &Out, uint64_t V, int Bytes) {
  for (int I = 0; I < Bytes; ++I)
    Out.push_back(static_cast<unsigned char>(V >> (8 * I)));
}

/// The payload of a hand-built one-chunk archive: its eight blocks and
/// the frame's event count and time extent.
struct CraftedChunk {
  std::vector<std::vector<unsigned char>> Blocks;
  uint32_t Events = 1;
  uint64_t MinTime = 0, MaxTime = 0;
};

/// One event (time 0, no key, msg and value 0) whose subject and peer
/// columns hold the raw varints \p Subject and \p Peer (stored as id + 1;
/// 0 is InvalidProcess).
CraftedChunk oneEventChunk(TraceKind Kind, uint64_t Subject, uint64_t Peer) {
  CraftedChunk C;
  C.Blocks.resize(8);
  C.Blocks[0].push_back(static_cast<unsigned char>(Kind));
  putVarint(C.Blocks[1], 0); // Time delta.
  putVarint(C.Blocks[2], Subject);
  putVarint(C.Blocks[3], Peer);
  for (size_t B = 4; B != 8; ++B)
    putVarint(C.Blocks[B], 0); // Msg, key id, value, string-table count.
  return C;
}

/// Frames \p C as a valid archive: file magic, chunk header, blocks,
/// index and tail all agree, so only the column payload can be wrong.
std::vector<unsigned char> craftFile(const CraftedChunk &C) {
  uint32_t KindMask = 0;
  for (unsigned char K : C.Blocks[0])
    KindMask |= K < 32 ? 1u << K : 0;
  std::vector<unsigned char> F = {'D', 'Y', 'T', 'R', 'C', 'O', 'L', '1'};
  for (char Ch : {'C', 'H', 'N', 'K'})
    F.push_back(static_cast<unsigned char>(Ch));
  putLE(F, C.Events, 4);
  putLE(F, C.MinTime, 8);
  putLE(F, C.MaxTime, 8);
  putLE(F, KindMask, 4);
  for (const auto &B : C.Blocks)
    putLE(F, B.size(), 4);
  for (const auto &B : C.Blocks)
    F.insert(F.end(), B.begin(), B.end());
  const uint64_t IndexOffset = F.size();
  putLE(F, 8, 8); // Chunk offset, right after the file magic.
  putLE(F, C.MinTime, 8);
  putLE(F, C.MaxTime, 8);
  putLE(F, C.Events, 4);
  putLE(F, KindMask, 4);
  putLE(F, IndexOffset, 8);
  putLE(F, 1, 8); // ChunkCount.
  putLE(F, C.Events, 8); // TotalEvents.
  for (char Ch : {'D', 'Y', 'T', 'R', 'C', 'I', 'D', 'X'})
    F.push_back(static_cast<unsigned char>(Ch));
  return F;
}

std::vector<unsigned char> craftOneEventFile(TraceKind Kind, uint64_t Subject,
                                             uint64_t Peer) {
  return craftFile(oneEventChunk(Kind, Subject, Peer));
}

/// Writes \p Bytes and expects the frame and the decoder to accept them while
/// readColumnarTraceFile refuses them as corrupt.
void expectDecodeOkButReadRefused(const std::vector<unsigned char> &Bytes,
                                const char *Label) {
  writeFileBytes(TestPath, Bytes);
  auto Reader = ColumnarTraceReader::open(TestPath);
  ASSERT_TRUE(Reader.ok()) << Label << ": " << Reader.error().str();
  ColumnBatch B;
  Status S = (*Reader)->decodeChunk(0, B);
  EXPECT_TRUE(S.ok()) << Label;
  EXPECT_EQ(B.size(), 1u) << Label;
  auto Back = readColumnarTraceFile(TestPath);
  ASSERT_FALSE(Back.ok()) << Label;
  EXPECT_NE(Back.error().Message.find("corrupt"), std::string::npos) << Label;
}

} // namespace

// Regression: the decoder reads ids into 64 bits, and readColumnarTraceFile
// fed an id no TraceRecord can hold straight into the narrowing assert.
// Such a file is now a corrupt-file error; the writer refuses to produce
// one in the first place.
TEST(TraceColumnar, OutOfRangeProcessIdRejected) {
  FileGuard G;
  const uint64_t TooBig = 1ULL << 32; // Decodes to id 2^32 - 1.
  expectDecodeOkButReadRefused(craftOneEventFile(TraceKind::Join, TooBig, 0),
                             "subject 2^32 - 1");
  expectDecodeOkButReadRefused(craftOneEventFile(TraceKind::Send, 1, TooBig),
                             "peer 2^32 - 1");

  // The largest id a record holds still reads back.
  writeFileBytes(TestPath,
                 craftOneEventFile(TraceKind::Join, TooBig - 1, 0));
  auto Back = readColumnarTraceFile(TestPath);
  ASSERT_TRUE(Back.ok()) << Back.error().str();
  EXPECT_EQ(Back->records()[0].subject(), TooBig - 2);
  EXPECT_EQ(Back->records()[0].peer(), InvalidProcess);

  std::remove(TestPath);
  ColumnarTraceWriter W;
  ASSERT_TRUE(W.open(TestPath).ok());
  W.append({TraceKind::Join, 0, 1, InvalidProcess, 0, "", 0});
  W.append({TraceKind::Join, 1, TooBig - 1, InvalidProcess, 0, "", 0});
  EXPECT_EQ(W.eventsWritten(), 1u); // The offender is dropped...
  Status S = W.close();             // ...and the close reports it.
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().Message.find("u32"), std::string::npos);
  EXPECT_EQ(std::fopen(TestPath, "r"), nullptr); // Nothing left behind.
}

// A leave or crash of a process that never joined cannot enter a Trace
// (its presence bookkeeping asserts): reading one back is a corrupt-file
// error.
TEST(TraceColumnar, UnjoinedLeaveRejected) {
  FileGuard G;
  expectDecodeOkButReadRefused(craftOneEventFile(TraceKind::Leave, 2, 0),
                             "leave of 1");
  expectDecodeOkButReadRefused(craftOneEventFile(TraceKind::Crash, 2, 0),
                             "crash of 1");
}

// Every error the column decoder returns, one frame-valid file each: open()
// accepts the frame, decodeChunk names the damage, and
// readColumnarTraceFile and all four query kinds refuse the file as
// corrupt.
TEST(TraceColumnar, EveryDecoderErrorIsCleanOnEveryReadPath) {
  FileGuard G;
  using Damage = std::function<void(CraftedChunk &)>;
  const std::pair<const char *, Damage> Cases[] = {
      {"bad string table count", [](CraftedChunk &C) { C.Blocks[7] = {2}; }},
      {"bad string table entry",
       [](CraftedChunk &C) { C.Blocks[7] = {1, 5, 'a'}; }},
      {"trailing bytes in string table",
       [](CraftedChunk &C) { C.Blocks[7] = {0, 0}; }},
      {"bad kind byte", [](CraftedChunk &C) { C.Blocks[0] = {7}; }},
      {"truncated column block", [](CraftedChunk &C) { C.Blocks[2].clear(); }},
      // Ten bytes, so the varint decodes in place and still overflows.
      {"truncated column block",
       [](CraftedChunk &C) {
         C.Blocks[6].assign(9, 0x80);
         C.Blocks[6].push_back(0x02);
       }},
      {"trailing bytes in column block",
       [](CraftedChunk &C) { C.Blocks[6].push_back(0); }},
      {"first time delta nonzero",
       [](CraftedChunk &C) {
         C.Blocks[1] = {1};
         C.MaxTime = 1;
       }},
      {"event time beyond chunk max",
       [](CraftedChunk &C) {
         for (auto &B : C.Blocks)
           B.push_back(0);
         C.Blocks[1].back() = 5; // Second event at time 5 ...
         C.Blocks[2].back() = 3;
         C.Blocks[7].pop_back();
         C.Events = 2;
         C.MaxTime = 3; // ... past the frame's max.
       }},
      {"last event time disagrees with chunk max",
       [](CraftedChunk &C) { C.MaxTime = 5; }},
      {"msg kind out of int range",
       [](CraftedChunk &C) {
         C.Blocks[4].clear();
         putVarint(C.Blocks[4], 1ULL << 32); // zigzag(2^31).
       }},
      {"key id out of range", [](CraftedChunk &C) { C.Blocks[5] = {1}; }},
  };
  for (const auto &[Message, Damage] : Cases) {
    CraftedChunk C = oneEventChunk(TraceKind::Join, 2, 0);
    Damage(C);
    writeFileBytes(TestPath, craftFile(C));
    auto Src = TraceQuerySource::open(TestPath);
    ASSERT_TRUE(Src.ok()) << Message << ": " << Src.error().str();
    ColumnBatch B;
    Status S = (*Src)->decodeChunk(0, B);
    ASSERT_FALSE(S.ok()) << Message;
    EXPECT_NE(S.error().Message.find(Message), std::string::npos)
        << Message << " vs " << S.error().Message;

    auto Back = readColumnarTraceFile(TestPath);
    ASSERT_FALSE(Back.ok()) << Message;
    EXPECT_NE(Back.error().Message.find(Message), std::string::npos)
        << Message;
    const TraceFilter All;
    const QueryOptions O;
    Result<std::string> Answers[] = {
        queryFilter(**Src, All, O),
        queryGroupBy(**Src, All, GroupField::Kind, O),
        queryTopK(**Src, All, GroupField::Subject, O),
        queryStats(**Src, All, O)};
    for (const auto &A : Answers) {
      ASSERT_FALSE(A.ok()) << Message;
      EXPECT_NE(A.error().Message.find("corrupt"), std::string::npos)
          << Message;
    }
  }

  // The one error no file can cause.
  writeFileBytes(TestPath, craftOneEventFile(TraceKind::Join, 2, 0));
  auto Src = TraceQuerySource::open(TestPath);
  ASSERT_TRUE(Src.ok());
  ColumnBatch B;
  EXPECT_TRUE((*Src)->decodeChunk(0, B).ok());
  Status S = (*Src)->decodeChunk(1, B);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().Message.find("chunk index out of range"),
            std::string::npos);
}

// A subject of 2^60 sizes no dense array: group-by and stats answer it
// from their ordered overflow (under ASan a huge allocation would abort).
TEST(TraceColumnar, HugeSubjectIdQueriedWithoutHugeAllocation) {
  FileGuard G;
  const uint64_t Huge = 1ULL << 60;
  writeFileBytes(TestPath, craftOneEventFile(TraceKind::Join, Huge + 1, 0));
  auto Src = TraceQuerySource::open(TestPath);
  ASSERT_TRUE(Src.ok()) << Src.error().str();
  const TraceFilter All;
  const QueryOptions O;
  auto By = queryGroupBy(**Src, All, GroupField::Subject, O);
  ASSERT_TRUE(By.ok()) << By.error().str();
  EXPECT_EQ(*By, "subject\tcount\tvalue_sum\tt_min\tt_max\n" +
                     std::to_string(Huge) + "\t1\t0\t0\t0\n");
  auto Peers = queryTopK(**Src, All, GroupField::Peer, O);
  ASSERT_TRUE(Peers.ok());
  EXPECT_EQ(*Peers,
            "peer\tcount\n" + std::to_string(InvalidProcess) + "\t1\n");
  auto Stats = queryStats(**Src, All, O);
  ASSERT_TRUE(Stats.ok()) << Stats.error().str();
  EXPECT_NE(Stats->find("events\t1\n"), std::string::npos);
  EXPECT_NE(Stats->find("subjects\t1\n"), std::string::npos);
}

// The batch path's order latch: a record whose time goes backwards, inside
// a batch or at a batch boundary, is dropped alone and fails close().
TEST(TraceColumnar, BatchOutOfOrderRejectedAtClose) {
  FileGuard G;
  const TraceKeyTable Keys;
  auto Batch = [](std::initializer_list<SimTime> Times) {
    std::vector<TraceRecord> Out;
    for (SimTime T : Times)
      Out.push_back(TraceRecord::make(TraceKind::Send, T, 1, 2));
    return Out;
  };
  const std::vector<std::vector<TraceRecord>> Inside = {Batch({5, 6, 3, 7})};
  const std::vector<std::vector<TraceRecord>> Boundary = {Batch({5, 7}),
                                                          Batch({1, 8})};
  for (const auto *Batches : {&Inside, &Boundary}) {
    ColumnarTraceWriter W;
    ASSERT_TRUE(W.open(TestPath).ok());
    for (const auto &B : *Batches)
      W.appendBatch(B.data(), B.size(), Keys);
    EXPECT_EQ(W.eventsWritten(), 3u); // Only the offender is dropped...
    Status S = W.close();             // ...and the close reports it.
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.error().Message.find("out of time order"), std::string::npos);
    EXPECT_EQ(std::fopen(TestPath, "r"), nullptr); // Nothing left behind.
  }
}

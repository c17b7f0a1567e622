//===- TraceColumnar.cpp - Binary columnar trace format -------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/sim/TraceColumnar.h"

#include "dyndist/support/StringUtils.h"

#include <algorithm>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define DYNDIST_HAVE_MMAP 1
#endif

using namespace dyndist;

namespace {

constexpr char FileMagic[8] = {'D', 'Y', 'T', 'R', 'C', 'O', 'L', '1'};
constexpr char TailMagic[8] = {'D', 'Y', 'T', 'R', 'C', 'I', 'D', 'X'};
constexpr uint32_t ChunkMagic = 0x4B4E4843; // "CHNK" little-endian.
constexpr size_t NumBlocks = 8;
constexpr size_t ChunkHeaderBytes = 4 + 4 + 8 + 8 + 4 + 4 * NumBlocks;
constexpr size_t IndexEntryBytes = 32;
constexpr size_t TailBytes = 32;

//===----------------------------------------------------------------------===//
// Little-endian scalar and varint codecs. memcpy keeps every access aligned
// for UBSan; the byte order is fixed so files are portable.
//===----------------------------------------------------------------------===//

void putU32(std::string &Out, uint32_t V) {
  unsigned char B[4];
  for (int I = 0; I < 4; ++I)
    B[I] = static_cast<unsigned char>(V >> (8 * I));
  Out.append(reinterpret_cast<const char *>(B), 4);
}

void putU64(std::string &Out, uint64_t V) {
  unsigned char B[8];
  for (int I = 0; I < 8; ++I)
    B[I] = static_cast<unsigned char>(V >> (8 * I));
  Out.append(reinterpret_cast<const char *>(B), 8);
}

uint32_t getU32(const unsigned char *P) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(P[I]) << (8 * I);
  return V;
}

uint64_t getU64(const unsigned char *P) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

void putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out += static_cast<char>((V & 0x7F) | 0x80);
    V >>= 7;
  }
  Out += static_cast<char>(V);
}

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>((V >> 1) ^ (~(V & 1) + 1));
}

/// Bounds-checked varint decoder over one column block.
struct VarintCursor {
  const unsigned char *P;
  const unsigned char *End;

  bool next(uint64_t &Out) {
    uint64_t V = 0;
    unsigned Shift = 0;
    while (P < End) {
      unsigned char B = *P++;
      if (Shift >= 63 && B > 1)
        return false; // > 64 bits of payload.
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80)) {
        Out = V;
        return true;
      }
      Shift += 7;
      if (Shift > 63)
        return false;
    }
    return false; // Ran off the block.
  }

  bool done() const { return P == End; }
};

Error corrupt(const std::string &What) {
  return Error(Error::Code::InvalidArgument, "corrupt columnar trace: " + What);
}

} // namespace

//===----------------------------------------------------------------------===//
// ColumnarTraceWriter
//===----------------------------------------------------------------------===//

ColumnarTraceWriter::~ColumnarTraceWriter() {
  if (File) {
    std::fclose(File);
    std::remove(TempPath.c_str());
  }
}

Status ColumnarTraceWriter::open(const std::string &Path) {
  if (File)
    return Error(Error::Code::InvalidArgument, "sink already open");
  FinalPath = Path;
  TempPath = Path + ".tmp";
  File = std::fopen(TempPath.c_str(), "wb");
  if (!File)
    return Error(Error::Code::InvalidArgument,
                 "cannot open for writing: " + TempPath);
  WriteFailed = false;
  OrderViolated = false;
  IdOutOfRange = false;
  ChunkEvents = 0;
  ChunkStrings = 0;
  KindMask = 0;
  PrevTime = 0;
  Index.clear();
  KeyTable.clear();
  BatchIdMap.clear();
  TotalEvents = 0;
  if (std::fwrite(FileMagic, 1, sizeof(FileMagic), File) != sizeof(FileMagic))
    WriteFailed = true;
  FileOffset = sizeof(FileMagic);
  return Status::success();
}

void ColumnarTraceWriter::append(const TraceEvent &E) {
  if (!File)
    return;
  // An id no TraceRecord can hold would make the file unreadable: refuse
  // it here, deferred like a misordered record.
  if (!TraceRecord::fits(E.Subject) || !TraceRecord::fits(E.Peer)) {
    IdOutOfRange = true;
    return;
  }
  // PrevTime carries across chunk flushes so cross-chunk regressions are
  // caught too (PrevTime starts at 0; SimTime is unsigned).
  if (TotalEvents > 0 && E.Time < PrevTime) {
    OrderViolated = true;
    return;
  }
  uint64_t Delta = ChunkEvents == 0 ? 0 : E.Time - PrevTime;
  if (ChunkEvents == 0)
    ChunkMinTime = E.Time;
  PrevTime = E.Time;
  Kinds += static_cast<char>(static_cast<uint8_t>(E.Kind));
  KindMask |= 1u << static_cast<unsigned>(E.Kind);
  putVarint(Times, Delta);
  // +1 wraps InvalidProcess (~0) to 0: one byte instead of ten.
  putVarint(Subjects, E.Subject + 1);
  putVarint(Peers, E.Peer + 1);
  putVarint(Msgs, zigzag(E.MsgKind));
  if (E.Key.empty()) {
    KeyIds += '\0'; // varint 0 = empty key.
  } else {
    auto [It, Inserted] = KeyTable.try_emplace(E.Key, ChunkStrings + 1);
    if (Inserted) {
      ++ChunkStrings;
      putVarint(StrTab, E.Key.size());
      StrTab += E.Key;
    }
    putVarint(KeyIds, It->second);
  }
  putVarint(Values, zigzag(E.Value));
  ++ChunkEvents;
  ++TotalEvents;
  if (ChunkEvents == EventsPerChunk)
    flushChunk();
}

void ColumnarTraceWriter::appendBatch(const TraceRecord *R, size_t N,
                                      const TraceKeyTable &Keys) {
  if (!File)
    return;
  if (BatchIdMap.size() < Keys.size() + 1)
    BatchIdMap.resize(Keys.size() + 1, 0);
  for (size_t I = 0; I != N; ++I) {
    const TraceRecord &Rec = R[I];
    // Same deferred order check as append(): drop the offender, latch the
    // error for close().
    if (TotalEvents > 0 && Rec.Time < PrevTime) {
      OrderViolated = true;
      continue;
    }
    uint64_t Delta = ChunkEvents == 0 ? 0 : Rec.Time - PrevTime;
    if (ChunkEvents == 0)
      ChunkMinTime = Rec.Time;
    PrevTime = Rec.Time;
    Kinds += static_cast<char>(static_cast<uint8_t>(Rec.kind()));
    KindMask |= 1u << static_cast<unsigned>(Rec.kind());
    putVarint(Times, Delta);
    // widen() + 1 reproduces the per-event bytes: InvalidProcess wraps to 0.
    putVarint(Subjects, Rec.subject() + 1);
    putVarint(Peers, Rec.peer() + 1);
    putVarint(Msgs, zigzag(Rec.MsgKind));
    uint32_t TableId = Rec.keyId();
    if (TableId == 0) {
      KeyIds += '\0'; // varint 0 = empty key.
    } else {
      uint32_t ChunkId = BatchIdMap[TableId];
      if (ChunkId == 0) {
        std::string_view Name = Keys.name(TableId);
        auto [It, Inserted] =
            KeyTable.try_emplace(std::string(Name), ChunkStrings + 1);
        if (Inserted) {
          ++ChunkStrings;
          putVarint(StrTab, Name.size());
          StrTab += Name;
        }
        ChunkId = It->second;
        BatchIdMap[TableId] = ChunkId;
      }
      putVarint(KeyIds, ChunkId);
    }
    putVarint(Values, zigzag(Rec.Value));
    ++ChunkEvents;
    ++TotalEvents;
    if (ChunkEvents == EventsPerChunk)
      flushChunk();
  }
}

void ColumnarTraceWriter::flushChunk() {
  if (ChunkEvents == 0)
    return;
  // The string table block is (count, entries); entries accumulated in
  // StrTab, count prepended now.
  Scratch.clear();
  putVarint(Scratch, ChunkStrings);
  Scratch += StrTab;

  const std::string *Blocks[NumBlocks] = {&Kinds, &Times,  &Subjects, &Peers,
                                          &Msgs,  &KeyIds, &Values,   &Scratch};
  std::string Header;
  Header.reserve(ChunkHeaderBytes);
  putU32(Header, ChunkMagic);
  putU32(Header, ChunkEvents);
  putU64(Header, ChunkMinTime);
  putU64(Header, PrevTime);
  putU32(Header, KindMask);
  for (const std::string *B : Blocks)
    putU32(Header, static_cast<uint32_t>(B->size()));

  ColumnarChunkInfo Info;
  Info.Offset = FileOffset;
  Info.MinTime = ChunkMinTime;
  Info.MaxTime = PrevTime;
  Info.EventCount = ChunkEvents;
  Info.KindMask = KindMask;
  Index.push_back(Info);

  if (std::fwrite(Header.data(), 1, Header.size(), File) != Header.size())
    WriteFailed = true;
  FileOffset += Header.size();
  for (const std::string *B : Blocks) {
    if (!B->empty() &&
        std::fwrite(B->data(), 1, B->size(), File) != B->size())
      WriteFailed = true;
    FileOffset += B->size();
  }

  Kinds.clear();
  Times.clear();
  Subjects.clear();
  Peers.clear();
  Msgs.clear();
  KeyIds.clear();
  Values.clear();
  StrTab.clear();
  KeyTable.clear();
  std::fill(BatchIdMap.begin(), BatchIdMap.end(), 0u);
  ChunkEvents = 0;
  ChunkStrings = 0;
  KindMask = 0;
  // PrevTime carries across chunks: the next chunk's MinTime must be >= it,
  // which validates cross-chunk monotonicity on read.
}

Status ColumnarTraceWriter::close() {
  if (!File)
    return Error(Error::Code::InvalidArgument, "sink not open");
  flushChunk();

  std::string Footer;
  Footer.reserve(Index.size() * IndexEntryBytes + TailBytes);
  uint64_t IndexOffset = FileOffset;
  for (const ColumnarChunkInfo &Info : Index) {
    putU64(Footer, Info.Offset);
    putU64(Footer, Info.MinTime);
    putU64(Footer, Info.MaxTime);
    putU32(Footer, Info.EventCount);
    putU32(Footer, Info.KindMask);
  }
  putU64(Footer, IndexOffset);
  putU64(Footer, Index.size());
  putU64(Footer, TotalEvents);
  Footer.append(TailMagic, sizeof(TailMagic));
  if (std::fwrite(Footer.data(), 1, Footer.size(), File) != Footer.size())
    WriteFailed = true;

  bool Flushed = std::fflush(File) == 0 && !std::ferror(File);
  std::fclose(File);
  File = nullptr;
  if (WriteFailed || !Flushed) {
    std::remove(TempPath.c_str());
    return Error(Error::Code::InvalidArgument, "short write to " + TempPath);
  }
  if (OrderViolated || IdOutOfRange) {
    std::remove(TempPath.c_str());
    return Error(Error::Code::InvalidArgument,
                 OrderViolated ? "trace events out of time order"
                               : "process id exceeds the trace record's "
                                 "u32 field");
  }
  if (std::rename(TempPath.c_str(), FinalPath.c_str()) != 0) {
    std::remove(TempPath.c_str());
    return Error(Error::Code::InvalidArgument,
                 "cannot rename " + TempPath + " to " + FinalPath);
  }
  return Status::success();
}

//===----------------------------------------------------------------------===//
// ColumnarTraceReader
//===----------------------------------------------------------------------===//

ColumnarTraceReader::~ColumnarTraceReader() {
#if DYNDIST_HAVE_MMAP
  if (Mapped && Data)
    ::munmap(const_cast<unsigned char *>(Data), Size);
#endif
}

Result<std::shared_ptr<ColumnarTraceReader>>
ColumnarTraceReader::open(const std::string &Path) {
  std::shared_ptr<ColumnarTraceReader> R(new ColumnarTraceReader());

#if DYNDIST_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Error(Error::Code::InvalidArgument,
                 "cannot open for reading: " + Path);
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    ::close(Fd);
    return Error(Error::Code::InvalidArgument, "cannot stat: " + Path);
  }
  R->Size = static_cast<size_t>(St.st_size);
  if (R->Size > 0) {
    void *Map = ::mmap(nullptr, R->Size, PROT_READ, MAP_PRIVATE, Fd, 0);
    if (Map != MAP_FAILED) {
      R->Data = static_cast<const unsigned char *>(Map);
      R->Mapped = true;
    }
  }
  if (!R->Mapped && R->Size > 0) {
    // mmap refused (unusual filesystem): fall back to buffering.
    R->Owned.resize(R->Size);
    size_t Got = 0;
    while (Got < R->Size) {
      ssize_t N = ::read(Fd, R->Owned.data() + Got, R->Size - Got);
      if (N <= 0) {
        ::close(Fd);
        return Error(Error::Code::InvalidArgument,
                     "read error (not EOF) in " + Path);
      }
      Got += static_cast<size_t>(N);
    }
    R->Data = R->Owned.data();
  }
  ::close(Fd);
#else
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Error(Error::Code::InvalidArgument,
                 "cannot open for reading: " + Path);
  char Buffer[65536];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), F)) > 0)
    R->Owned.insert(R->Owned.end(), Buffer, Buffer + Got);
  bool ReadError = std::ferror(F) != 0;
  std::fclose(F);
  if (ReadError)
    return Error(Error::Code::InvalidArgument,
                 "read error (not EOF) in " + Path);
  R->Size = R->Owned.size();
  R->Data = R->Owned.data();
#endif

  // Frame validation. Everything scanChunk trusts is established here.
  if (R->Size < sizeof(FileMagic) + TailBytes)
    return corrupt("file shorter than magic + tail");
  if (std::memcmp(R->Data, FileMagic, sizeof(FileMagic)) != 0)
    return corrupt("bad file magic");
  const unsigned char *Tail = R->Data + R->Size - TailBytes;
  if (std::memcmp(Tail + 24, TailMagic, sizeof(TailMagic)) != 0)
    return corrupt("bad tail magic");
  uint64_t IndexOffset = getU64(Tail);
  uint64_t ChunkCount = getU64(Tail + 8);
  R->Total = getU64(Tail + 16);
  if (IndexOffset < sizeof(FileMagic) || IndexOffset > R->Size ||
      ChunkCount > (R->Size - TailBytes) / IndexEntryBytes ||
      IndexOffset + ChunkCount * IndexEntryBytes + TailBytes != R->Size)
    return corrupt("index footer out of bounds");

  R->Index.reserve(ChunkCount);
  uint64_t ExpectOffset = sizeof(FileMagic);
  uint64_t PrevMax = 0;
  uint64_t SumEvents = 0;
  for (uint64_t I = 0; I < ChunkCount; ++I) {
    const unsigned char *Entry = R->Data + IndexOffset + I * IndexEntryBytes;
    ColumnarChunkInfo Info;
    Info.Offset = getU64(Entry);
    Info.MinTime = getU64(Entry + 8);
    Info.MaxTime = getU64(Entry + 16);
    Info.EventCount = getU32(Entry + 24);
    Info.KindMask = getU32(Entry + 28);

    if (Info.Offset != ExpectOffset)
      return corrupt(format("chunk %llu offset mismatch",
                            (unsigned long long)I));
    if (Info.Offset + ChunkHeaderBytes > IndexOffset)
      return corrupt(format("chunk %llu header out of bounds",
                            (unsigned long long)I));
    const unsigned char *H = R->Data + Info.Offset;
    if (getU32(H) != ChunkMagic)
      return corrupt(format("chunk %llu bad magic", (unsigned long long)I));
    if (getU32(H + 4) != Info.EventCount || getU64(H + 8) != Info.MinTime ||
        getU64(H + 16) != Info.MaxTime || getU32(H + 24) != Info.KindMask)
      return corrupt(format("chunk %llu header disagrees with index",
                            (unsigned long long)I));
    if (Info.EventCount == 0 ||
        Info.EventCount > ColumnarTraceWriter::EventsPerChunk)
      return corrupt(format("chunk %llu bad event count",
                            (unsigned long long)I));
    if (Info.MinTime > Info.MaxTime ||
        (I > 0 && Info.MinTime < PrevMax))
      return corrupt(format("chunk %llu violates time order",
                            (unsigned long long)I));
    PrevMax = Info.MaxTime;

    uint64_t BlockEnd = Info.Offset + ChunkHeaderBytes;
    for (size_t B = 0; B < NumBlocks; ++B) {
      uint64_t Bytes = getU32(H + 28 + 4 * B);
      BlockEnd += Bytes;
      if (BlockEnd > IndexOffset)
        return corrupt(format("chunk %llu block %zu out of bounds",
                              (unsigned long long)I, B));
    }
    // Kind block is one byte per event; cheap to pin here.
    if (getU32(H + 28) != Info.EventCount)
      return corrupt(format("chunk %llu kind block size mismatch",
                            (unsigned long long)I));
    ExpectOffset = BlockEnd;
    SumEvents += Info.EventCount;
    R->Index.push_back(Info);
  }
  if (ExpectOffset != IndexOffset)
    return corrupt("trailing bytes between last chunk and index");
  if (SumEvents != R->Total)
    return corrupt("tail event total disagrees with index");
  return R;
}

Status ColumnarTraceReader::scanChunk(
    size_t I, FunctionRef<void(const TraceEventView &)> Visit) const {
  if (I >= Index.size())
    return corrupt("chunk index out of range");
  const ColumnarChunkInfo &Info = Index[I];
  const unsigned char *H = Data + Info.Offset;
  uint32_t Count = Info.EventCount;

  const unsigned char *Block[NumBlocks];
  const unsigned char *Cursor = H + ChunkHeaderBytes;
  uint32_t Bytes[NumBlocks];
  for (size_t B = 0; B < NumBlocks; ++B) {
    Bytes[B] = getU32(H + 28 + 4 * B);
    Block[B] = Cursor;
    Cursor += Bytes[B];
  }

  // Decode the string table: spans into the mapped bytes, no copies.
  VarintCursor St{Block[7], Block[7] + Bytes[7]};
  uint64_t NumStrings = 0;
  if (!St.next(NumStrings) || NumStrings > Count)
    return corrupt("bad string table count");
  std::vector<std::string_view> Strings;
  Strings.reserve(NumStrings);
  for (uint64_t S = 0; S < NumStrings; ++S) {
    uint64_t Len = 0;
    if (!St.next(Len) || Len > static_cast<uint64_t>(St.End - St.P))
      return corrupt("bad string table entry");
    Strings.emplace_back(reinterpret_cast<const char *>(St.P),
                         static_cast<size_t>(Len));
    St.P += Len;
  }
  if (!St.done())
    return corrupt("trailing bytes in string table");

  const unsigned char *KindP = Block[0];
  VarintCursor TimeC{Block[1], Block[1] + Bytes[1]};
  VarintCursor SubjC{Block[2], Block[2] + Bytes[2]};
  VarintCursor PeerC{Block[3], Block[3] + Bytes[3]};
  VarintCursor MsgC{Block[4], Block[4] + Bytes[4]};
  VarintCursor KeyC{Block[5], Block[5] + Bytes[5]};
  VarintCursor ValC{Block[6], Block[6] + Bytes[6]};

  uint64_t Time = Info.MinTime;
  for (uint32_t E = 0; E < Count; ++E) {
    TraceEventView V;
    uint8_t KindByte = KindP[E];
    if (KindByte > static_cast<uint8_t>(TraceKind::Observe))
      return corrupt("bad kind byte");
    V.Kind = static_cast<TraceKind>(KindByte);

    uint64_t Delta = 0, Subj = 0, Peer = 0, Msg = 0, KeyId = 0, Val = 0;
    if (!TimeC.next(Delta) || !SubjC.next(Subj) || !PeerC.next(Peer) ||
        !MsgC.next(Msg) || !KeyC.next(KeyId) || !ValC.next(Val))
      return corrupt("truncated column block");
    if (E == 0 && Delta != 0)
      return corrupt("first time delta nonzero");
    Time += Delta;
    if (Time > Info.MaxTime)
      return corrupt("event time beyond chunk max");
    V.Time = Time;
    V.Subject = Subj - 1; // 0 wraps back to InvalidProcess.
    V.Peer = Peer - 1;
    int64_t MsgSigned = unzigzag(Msg);
    if (MsgSigned < INT32_MIN || MsgSigned > INT32_MAX)
      return corrupt("msg kind out of int range");
    V.MsgKind = static_cast<int>(MsgSigned);
    if (KeyId > NumStrings)
      return corrupt("key id out of range");
    if (KeyId != 0)
      V.Key = Strings[KeyId - 1];
    V.Value = unzigzag(Val);
    Visit(V);
  }
  if (Time != Info.MaxTime)
    return corrupt("last event time disagrees with chunk max");
  if (!TimeC.done() || !SubjC.done() || !PeerC.done() || !MsgC.done() ||
      !KeyC.done() || !ValC.done())
    return corrupt("trailing bytes in column block");
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Convenience entry points
//===----------------------------------------------------------------------===//

Status dyndist::writeColumnarTraceFile(const Trace &T,
                                       const std::string &Path) {
  if (T.timeOrderViolated())
    return Error(Error::Code::InvalidArgument,
                 "trace events out of time order");
  ColumnarTraceWriter W;
  if (Status S = W.open(Path); !S)
    return S;
  W.appendBatch(T.records().data(), T.records().size(), T.keys());
  return W.close();
}

Result<Trace> dyndist::readColumnarTraceFile(const std::string &Path) {
  auto Reader = ColumnarTraceReader::open(Path);
  if (!Reader)
    return Reader.error();
  Trace T;
  // The first record that cannot enter a Trace; scanning stops there.
  const char *Bad = nullptr;
  for (size_t I = 0, N = (*Reader)->chunkCount(); I < N && !Bad; ++I) {
    Status S = (*Reader)->scanChunk(I, [&](const TraceEventView &V) {
      if (Bad)
        return;
      if (!TraceRecord::fits(V.Subject) || !TraceRecord::fits(V.Peer)) {
        Bad = "process id out of range";
        return;
      }
      if ((V.Kind == TraceKind::Leave || V.Kind == TraceKind::Crash) &&
          T.presence().find(V.Subject) == T.presence().end()) {
        Bad = "leave or crash of a process that never joined";
        return;
      }
      std::string Key(V.Key);
      if (T.keys().size() == TraceKeyTable::MaxKeys && !Key.empty() &&
          T.keys().find(Key) == 0) {
        Bad = "more distinct keys than a trace can intern";
        return;
      }
      T.appendRecord(TraceRecord::make(V.Kind, V.Time, V.Subject, V.Peer,
                                       V.MsgKind, T.keys().intern(Key),
                                       V.Value));
    });
    if (!S)
      return S.error();
  }
  if (Bad)
    return corrupt(Bad);
  // open() and scanChunk() already enforce time order; the trace's own
  // latch is the backstop.
  if (T.timeOrderViolated())
    return corrupt("events out of time order");
  return T;
}

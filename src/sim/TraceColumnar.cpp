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

constexpr size_t MaxVarintBytes = 10;

/// Writes \p V as a varint at \p P, which has room for MaxVarintBytes;
/// returns the byte past it.
unsigned char *putVarint(unsigned char *P, uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<unsigned char>((V & 0x7F) | 0x80);
    V >>= 7;
  }
  *P++ = static_cast<unsigned char>(V);
  return P;
}

void putVarint(std::string &Out, uint64_t V) {
  unsigned char B[MaxVarintBytes];
  Out.append(reinterpret_cast<const char *>(B),
             static_cast<size_t>(putVarint(B, V) - B));
}

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>((V >> 1) ^ (~(V & 1) + 1));
}

/// A decoded varint and the byte past it; Next is null for a bad encoding.
struct Varint {
  const unsigned char *Next;
  uint64_t Value;
};

/// Decodes the varint at \p P in a block ending at \p End. Near the end it
/// decodes a zero-padded copy, so running off the block shows as a varint
/// that ends in the padding.
Varint getVarint(const unsigned char *P, const unsigned char *End) {
  const auto Left = static_cast<size_t>(End - P);
  unsigned char Pad[MaxVarintBytes] = {};
  const unsigned char *Q =
      Left >= MaxVarintBytes ? P : static_cast<unsigned char *>(
                                       std::memcpy(Pad, P, Left));
  uint64_t V = 0;
  for (unsigned Byte = 0; Byte != MaxVarintBytes; ++Byte) {
    const uint64_t B = Q[Byte];
    // The tenth byte carries bit 63 only.
    if (Byte == MaxVarintBytes - 1 && B > 1)
      break;
    V |= (B & 0x7F) << (7 * Byte);
    if (B < 0x80)
      return Byte < Left ? Varint{P + Byte + 1, V} : Varint{nullptr, 0};
  }
  return {nullptr, 0};
}

/// Decodes the block [\p P, \p End) as exactly \p Count varints, handing
/// the I-th to Put(I, V). Returns the corruption, or null.
template <typename PutFn>
const char *decodeVarints(const unsigned char *P, const unsigned char *End,
                          uint32_t Count, PutFn Put) {
  for (uint32_t I = 0; I != Count; ++I) {
    // One- and two-byte varints, the bulk of every column, decode inline.
    uint64_t V;
    if (P != End && P[0] < 0x80) {
      V = *P++;
    } else if (End - P >= 2 && P[1] < 0x80) {
      V = (P[0] & 0x7F) | uint64_t(P[1]) << 7;
      P += 2;
    } else {
      Varint Long = getVarint(P, End);
      if (!Long.Next)
        return "truncated column block";
      P = Long.Next;
      V = Long.Value;
    }
    Put(I, V);
  }
  return P == End ? nullptr : "trailing bytes in column block";
}

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
  for (size_t C = 0; C != NumColumns; ++C) {
    if (!ColData[C]) // Default-initialized: no page is touched until used.
      ColData[C].reset(new unsigned char[EventsPerChunk * MaxVarintBytes]);
    ColSize[C] = 0;
  }
  StrTab.clear();
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
  OwnKeys = TraceKeyTable();
  OwnIdMap.clear();
  TotalEvents = 0;
  if (std::fwrite(FileMagic, 1, sizeof(FileMagic), File) != sizeof(FileMagic))
    WriteFailed = true;
  FileOffset = sizeof(FileMagic);
  return Status::success();
}

void ColumnarTraceWriter::append(const TraceEvent &E) {
  // An id no TraceRecord can hold would make the file unreadable: refuse
  // it here, deferred like a misordered record.
  if (!TraceRecord::fits(E.Subject) || !TraceRecord::fits(E.Peer)) {
    IdOutOfRange = true;
    return;
  }
  const TraceRecord R =
      TraceRecord::make(E.Kind, E.Time, E.Subject, E.Peer, E.MsgKind,
                        OwnKeys.intern(E.Key), E.Value);
  appendBatch(&R, 1, OwnKeys);
}

void ColumnarTraceWriter::appendBatch(const TraceRecord *R, size_t N,
                                      const TraceKeyTable &Keys) {
  if (!File)
    return;
  std::vector<uint32_t> &IdMap = &Keys == &OwnKeys ? OwnIdMap : BatchIdMap;
  if (IdMap.size() < Keys.size() + 1)
    IdMap.resize(Keys.size() + 1, 0);
  size_t I = 0;
  while (I != N) {
    // PrevTime carries across chunk flushes, so cross-chunk regressions
    // are caught too (it starts at 0; SimTime is unsigned).
    if (R[I].Time < PrevTime) {
      OrderViolated = true;
      ++I;
      continue;
    }
    // The longest in-order run from I that fits the open chunk.
    const size_t Room = EventsPerChunk - ChunkEvents;
    size_t J = I + 1;
    while (J != N && J - I != Room && R[J].Time >= R[J - 1].Time)
      ++J;
    encodeRun(R + I, J - I, Keys, IdMap);
    I = J;
  }
}

void ColumnarTraceWriter::encodeRun(const TraceRecord *R, size_t M,
                                    const TraceKeyTable &Keys,
                                    std::vector<uint32_t> &IdMap) {
  // Writes Value(R[I]) as a varint for each record, into column C.
  auto Encode = [&](Column C, auto Value) {
    unsigned char *P = ColData[C].get() + ColSize[C];
    for (size_t I = 0; I != M; ++I)
      P = putVarint(P, Value(R[I]));
    ColSize[C] = static_cast<size_t>(P - ColData[C].get());
  };

  // Locals, not members: the byte stores may alias any member.
  unsigned char *K = ColData[KindCol].get() + ColSize[KindCol];
  uint32_t Mask = 0;
  for (size_t I = 0; I != M; ++I) {
    K[I] = static_cast<uint8_t>(R[I].kind());
    Mask |= 1u << K[I];
  }
  ColSize[KindCol] += M;
  KindMask |= Mask;

  if (ChunkEvents == 0)
    ChunkMinTime = PrevTime = R[0].Time; // The first delta is 0.
  uint64_t Prev = PrevTime;
  Encode(TimeCol, [&Prev](const TraceRecord &X) {
    uint64_t Delta = X.Time - Prev;
    Prev = X.Time;
    return Delta;
  });
  PrevTime = Prev;
  // Ids are stored + 1; the u32 increment wraps InvalidProcess (UINT32_MAX)
  // to 0: one byte instead of ten.
  Encode(SubjectCol,
         [](const TraceRecord &X) { return uint32_t(X.SubjectId + 1u); });
  Encode(PeerCol, [](const TraceRecord &X) { return uint32_t(X.PeerId + 1u); });
  Encode(MsgCol, [](const TraceRecord &X) { return zigzag(X.MsgKind); });
  Encode(KeyCol, [&](const TraceRecord &X) -> uint64_t {
    const uint32_t TableId = X.keyId();
    if (TableId == 0 || IdMap[TableId] != 0)
      return IdMap[TableId]; // IdMap[0] stays 0: the empty key.
    // First use in this chunk: number the name by first appearance.
    std::string_view Name = Keys.name(TableId);
    auto [It, Inserted] = KeyTable.try_emplace(std::string(Name),
                                               ChunkStrings + 1);
    if (Inserted) {
      ++ChunkStrings;
      putVarint(StrTab, Name.size());
      StrTab += Name;
    }
    return IdMap[TableId] = It->second;
  });
  Encode(ValueCol, [](const TraceRecord &X) { return zigzag(X.Value); });

  ChunkEvents += static_cast<uint32_t>(M);
  TotalEvents += M;
  if (ChunkEvents == EventsPerChunk)
    flushChunk();
}

void ColumnarTraceWriter::flushChunk() {
  if (ChunkEvents == 0)
    return;
  // The string table block is (count, entries); entries accumulated in
  // StrTab, count prepended now.
  Scratch.clear();
  putVarint(Scratch, ChunkStrings);
  Scratch += StrTab;

  std::string_view Blocks[NumBlocks];
  for (size_t C = 0; C != NumColumns; ++C)
    Blocks[C] = {reinterpret_cast<const char *>(ColData[C].get()), ColSize[C]};
  Blocks[NumColumns] = Scratch;
  std::string Header;
  Header.reserve(ChunkHeaderBytes);
  putU32(Header, ChunkMagic);
  putU32(Header, ChunkEvents);
  putU64(Header, ChunkMinTime);
  putU64(Header, PrevTime);
  putU32(Header, KindMask);
  for (std::string_view B : Blocks)
    putU32(Header, static_cast<uint32_t>(B.size()));

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
  for (std::string_view B : Blocks) {
    if (!B.empty() &&
        std::fwrite(B.data(), 1, B.size(), File) != B.size())
      WriteFailed = true;
    FileOffset += B.size();
  }

  std::fill(std::begin(ColSize), std::end(ColSize), 0);
  StrTab.clear();
  KeyTable.clear();
  std::fill(BatchIdMap.begin(), BatchIdMap.end(), 0u);
  OwnKeys = TraceKeyTable(); // Per chunk, so it never nears MaxKeys.
  OwnIdMap.clear();
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
  if (int Fd = ::open(Path.c_str(), O_RDONLY); Fd >= 0) {
    struct stat St;
    if (::fstat(Fd, &St) == 0 && St.st_size > 0) {
      void *Map = ::mmap(nullptr, static_cast<size_t>(St.st_size), PROT_READ,
                         MAP_PRIVATE, Fd, 0);
      if (Map != MAP_FAILED) {
        R->Data = static_cast<const unsigned char *>(Map);
        R->Size = static_cast<size_t>(St.st_size);
        R->Mapped = true;
      }
    }
    ::close(Fd);
  }
#endif
  if (!R->Mapped) {
    // No mmap (platform, filesystem, or an empty file): buffer the file.
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
  }

  // Frame validation. Everything decodeChunk trusts is established here.
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

Status ColumnarTraceReader::decodeChunk(size_t I, ColumnBatch &Out) const {
  if (I >= Index.size())
    return corrupt("chunk index out of range");
  const ColumnarChunkInfo &Info = Index[I];
  const unsigned char *H = Data + Info.Offset;
  const uint32_t Count = Info.EventCount;
  const unsigned char *Block[NumBlocks + 1] = {H + ChunkHeaderBytes};
  for (size_t B = 0; B < NumBlocks; ++B)
    Block[B + 1] = Block[B] + getU32(H + 28 + 4 * B);

  // The string table: spans into the mapped bytes, no copies.
  Varint Strings = getVarint(Block[7], Block[8]);
  if (!Strings.Next || Strings.Value > Count)
    return corrupt("bad string table count");
  Out.Strings.clear();
  const unsigned char *P = Strings.Next;
  for (uint64_t S = 0; S != Strings.Value; ++S) {
    Varint Len = getVarint(P, Block[8]);
    if (!Len.Next || Len.Value > static_cast<uint64_t>(Block[8] - Len.Next))
      return corrupt("bad string table entry");
    Out.Strings.emplace_back(reinterpret_cast<const char *>(Len.Next),
                             static_cast<size_t>(Len.Value));
    P = Len.Next + Len.Value;
  }
  if (P != Block[8])
    return corrupt("trailing bytes in string table");

  // Kinds: one byte per event (open() pinned the block size).
  Out.Kind.assign(Block[0], Block[0] + Count);
  if (*std::max_element(Out.Kind.begin(), Out.Kind.end()) >
      static_cast<uint8_t>(TraceKind::Observe))
    return corrupt("bad kind byte");

  // Decodes varint block B into Col, each value through Map.
  auto Column = [&](size_t B, auto &Col, auto Map) {
    Col.resize(Count);
    auto *To = Col.data();
    return decodeVarints(Block[B], Block[B + 1], Count,
                         [&](uint32_t E, uint64_t V) { To[E] = Map(V); });
  };
  // Times: a running sum of deltas that may not pass the chunk max.
  uint64_t T = Info.MinTime;
  bool Beyond = false;
  if (const char *Bad = Column(1, Out.Time, [&](uint64_t Delta) {
        Beyond |= Delta > Info.MaxTime - T;
        return T += Delta;
      }))
    return corrupt(Bad);
  if (Out.Time[0] != Info.MinTime)
    return corrupt("first time delta nonzero");
  if (Beyond)
    return corrupt("event time beyond chunk max");
  if (T != Info.MaxTime)
    return corrupt("last event time disagrees with chunk max");

  auto Id = [](uint64_t V) { return V - 1; }; // Stored + 1: 0 wraps back.
  bool MsgOutOfRange = false;
  uint64_t MaxKey = 0;
  const char *Bad = Column(2, Out.Subject, Id);
  if (!Bad)
    Bad = Column(3, Out.Peer, Id);
  if (!Bad)
    Bad = Column(4, Out.Msg, [&](uint64_t V) {
      const int64_t Msg = unzigzag(V);
      MsgOutOfRange |= Msg != static_cast<int32_t>(Msg);
      return static_cast<int32_t>(Msg);
    });
  if (!Bad)
    Bad = Column(5, Out.KeyId, [&](uint64_t V) {
      MaxKey = std::max(MaxKey, V);
      return static_cast<uint32_t>(V);
    });
  if (!Bad)
    Bad = Column(6, Out.Value, [](uint64_t V) { return unzigzag(V); });
  if (Bad)
    return corrupt(Bad);
  if (MsgOutOfRange)
    return corrupt("msg kind out of int range");
  if (MaxKey > Strings.Value)
    return corrupt("key id out of range");
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
  ColumnBatch B;
  for (size_t C = 0, N = (*Reader)->chunkCount(); C != N; ++C) {
    if (Status S = (*Reader)->decodeChunk(C, B); !S)
      return S.error();
    for (size_t I = 0; I != B.size(); ++I) {
      // The first record that cannot enter a Trace fails the read.
      const TraceEventView V = B.view(I);
      if (!TraceRecord::fits(V.Subject) || !TraceRecord::fits(V.Peer))
        return corrupt("process id out of range");
      if ((V.Kind == TraceKind::Leave || V.Kind == TraceKind::Crash) &&
          T.presence().find(V.Subject) == T.presence().end())
        return corrupt("leave or crash of a process that never joined");
      std::string Key(V.Key);
      if (T.keys().size() == TraceKeyTable::MaxKeys && !Key.empty() &&
          T.keys().find(Key) == 0)
        return corrupt("more distinct keys than a trace can intern");
      T.appendRecord(TraceRecord::make(V.Kind, V.Time, V.Subject, V.Peer,
                                       V.MsgKind, T.keys().intern(Key),
                                       V.Value));
    }
  }
  // open() and decodeChunk() already enforce time order; the trace's own
  // latch is the backstop.
  if (T.timeOrderViolated())
    return corrupt("events out of time order");
  return T;
}

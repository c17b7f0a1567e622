//===- dyndist/sim/TraceColumnar.h - Binary columnar traces -----*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Append-only binary columnar trace format: the project's one trace
/// archive, and the only format read back (replay, queries, checkers run
/// offline); TraceIO's JSON lines are a write-only export. Events are
/// framed into chunks of at most 64K records; within a chunk each field
/// lives in its own column block (kind / time / subject / peer / msg / key
/// / value + a per-chunk string table for keys), times are delta + varint
/// encoded, and every chunk header carries its min/max time and a kind
/// bitmap so readers can skip whole chunks without decoding them. A
/// fixed-size index footer at the end of the file lets an mmap reader
/// locate every chunk in O(1) without scanning.
///
/// Both sides work a column at a time: the writer encodes each run of
/// in-order records column by column, and the one decoder, decodeChunk(),
/// fills typed arrays that queries and readColumnarTraceFile() read.
///
/// Byte layout (all integers little-endian):
///
///   file   := magic8 "DYTRCOL1" , chunk* , index , tail32
///   chunk  := "CHNK" u32LE , EventCount u32 , MinTime u64 , MaxTime u64 ,
///             KindMask u32 , BlockBytes u32[8] , block[8]
///   blocks := kinds (u8 per event)
///             times (varint of delta from previous event; first event's
///                    delta is from MinTime, which equals its time, so the
///                    first delta is 0)
///             subjects (varint of Subject+1; InvalidProcess wraps to 0)
///             peers    (varint of Peer+1;    InvalidProcess wraps to 0)
///             msgs     (zigzag varint of MsgKind)
///             keyids   (varint; 0 = empty key, else 1-based string-table
///                       index in first-appearance order)
///             values   (zigzag varint of Value)
///             strtab   (varint count , { varint len , bytes }*)
///   index  := { Offset u64 , MinTime u64 , MaxTime u64 , EventCount u32 ,
///               KindMask u32 }  -- one 32-byte entry per chunk
///   tail32 := IndexOffset u64 , ChunkCount u64 , TotalEvents u64 ,
///             magic8 "DYTRCIDX"
///
/// The chunk framing is a pure function of the event stream: the same
/// sequence of records produces byte-identical files regardless of how the
/// producer batched its appends. Combined with the kernel's schedule
/// determinism this makes whole-file digests pinnable across shard counts.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SIM_TRACECOLUMNAR_H
#define DYNDIST_SIM_TRACECOLUMNAR_H

#include "dyndist/sim/Trace.h"
#include "dyndist/sim/TraceSink.h"
#include "dyndist/support/Result.h"

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dyndist {

/// Per-chunk frame metadata, as recorded in both the chunk header and the
/// index footer. Query engines use MinTime/MaxTime/KindMask to skip chunks
/// that cannot contain matching events.
struct ColumnarChunkInfo {
  uint64_t Offset = 0;    ///< Chunk header position in the file.
  uint64_t MinTime = 0;   ///< Time of the chunk's first event.
  uint64_t MaxTime = 0;   ///< Time of the chunk's last event.
  uint32_t EventCount = 0;
  uint32_t KindMask = 0;  ///< Bit (1 << kind) set when the chunk holds one.
};

/// Streaming columnar writer. Usable standalone or as a kernel TraceSink
/// (Simulator::setTraceSink). Writes to \p Path + ".tmp" and renames over
/// \p Path on close(), so a crashed producer never leaves a half-written
/// file that parses.
class ColumnarTraceWriter final : public TraceSink {
public:
  /// Chunk capacity. 64K events keeps chunks around a few hundred KB
  /// encoded — large enough to amortize framing, small enough that a query
  /// shard is fine-grained.
  static constexpr uint32_t EventsPerChunk = 65536;

  ColumnarTraceWriter() = default;
  ColumnarTraceWriter(const ColumnarTraceWriter &) = delete;
  ColumnarTraceWriter &operator=(const ColumnarTraceWriter &) = delete;
  ~ColumnarTraceWriter() override;

  /// Starts writing to \p Path + ".tmp".
  Status open(const std::string &Path);

  /// Appends one record. Times must be nondecreasing (the Trace contract)
  /// and process ids must fit a TraceRecord (TraceRecord::fits); either
  /// violation drops the record and is deferred as an error reported by
  /// close().
  void append(const TraceEvent &E) override;

  /// Batched POD entry point, and the one encoder: each in-order run is
  /// encoded column by column, interned table ids mapped onto the per-chunk
  /// string table in first-appearance order (so the bytes equal feeding
  /// the same records through append() one at a time). All batches of one
  /// file must resolve against the same key table; the per-event path may
  /// interleave freely.
  void appendBatch(const TraceRecord *R, size_t N,
                   const TraceKeyTable &Keys) override;

  /// Flushes the open chunk, writes the index footer and tail, checks for
  /// write errors, and renames the temp file over the final path.
  Status close();

  /// Records appended since open().
  uint64_t eventsWritten() const { return TotalEvents; }

private:
  enum Column { KindCol, TimeCol, SubjectCol, PeerCol, MsgCol, KeyCol, ValueCol,
                NumColumns };

  /// Encodes \p M in-order records that fit the open chunk, column by
  /// column; flushes the chunk when it is full. \p IdMap caches \p Keys'
  /// ids -> chunk string ids (0 = not yet seen this chunk).
  void encodeRun(const TraceRecord *R, size_t M, const TraceKeyTable &Keys,
                 std::vector<uint32_t> &IdMap);
  void flushChunk();

  std::FILE *File = nullptr;
  std::string FinalPath;
  std::string TempPath;
  bool WriteFailed = false;
  bool OrderViolated = false;
  bool IdOutOfRange = false;

  // Open-chunk accumulation state.
  /// Column blocks, each allocated once with room for a full chunk of its
  /// widest encoding, so encoders write through a raw cursor unchecked.
  std::unique_ptr<unsigned char[]> ColData[NumColumns];
  size_t ColSize[NumColumns] = {};
  std::string StrTab;
  // dyndist-lint: allow(D1) try_emplace/clear only; chunk string ids are
  // assigned in first-appearance order, never by hash iteration
  std::unordered_map<std::string, uint32_t> KeyTable;
  /// appendBatch()'s id cache, over the caller's key table. KeyTable stays
  /// authoritative, so the two append paths may interleave.
  std::vector<uint32_t> BatchIdMap;
  /// append()'s own key table for appendBatch() (reset per chunk) and cache.
  TraceKeyTable OwnKeys;
  std::vector<uint32_t> OwnIdMap;
  uint32_t ChunkEvents = 0;
  uint32_t ChunkStrings = 0;
  uint64_t ChunkMinTime = 0;
  uint64_t PrevTime = 0;
  uint32_t KindMask = 0;

  std::vector<ColumnarChunkInfo> Index;
  uint64_t FileOffset = 0;
  uint64_t TotalEvents = 0;
  std::string Scratch;
};

/// One chunk decoded column by column (ColumnarTraceReader::decodeChunk):
/// row I of each array is the chunk's I-th event, so Time ascends. Ids are
/// 64-bit, a stored 0 being InvalidProcess (TraceRecord::fits is the
/// consumer's check); KeyId 0 is the empty key, else a 1-based index into
/// Strings, views into the mapped file. Refilling reuses the storage.
struct ColumnBatch {
  std::vector<uint8_t> Kind;
  std::vector<uint64_t> Time, Subject, Peer;
  std::vector<int32_t> Msg;
  std::vector<uint32_t> KeyId;
  std::vector<int64_t> Value;
  std::vector<std::string_view> Strings;

  size_t size() const { return Kind.size(); }
  std::string_view keyName(uint32_t Id) const {
    return Id == 0 ? std::string_view() : Strings[Id - 1];
  }
  TraceEventView view(size_t I) const {
    return {static_cast<TraceKind>(Kind[I]), Time[I], Subject[I], Peer[I],
            Msg[I], keyName(KeyId[I]), Value[I]};
  }
};

/// Random-access columnar reader over an mmap'ed (or, when mmap is
/// unavailable, fully buffered) file. open() validates the whole frame
/// structure — magic, tail, index bounds, chunk headers, cross-chunk time
/// monotonicity — and decodeChunk() validates the column payloads.
///
/// decodeChunk is const and touches only immutable reader state: any number
/// of threads may decode distinct (or the same) chunks concurrently into
/// their own batches, which is what the sharded query engine does.
class ColumnarTraceReader {
public:
  /// Opens and validates \p Path. Returns a shared handle so query workers
  /// can share one mapping.
  static Result<std::shared_ptr<ColumnarTraceReader>>
  open(const std::string &Path);

  ColumnarTraceReader(const ColumnarTraceReader &) = delete;
  ColumnarTraceReader &operator=(const ColumnarTraceReader &) = delete;
  ~ColumnarTraceReader();

  size_t chunkCount() const { return Index.size(); }
  const ColumnarChunkInfo &chunk(size_t I) const { return Index[I]; }
  uint64_t totalEvents() const { return Total; }

  /// Decodes chunk \p I into \p Out, one column at a time, validating
  /// every column. Corrupt data is an InvalidArgument error ("corrupt
  /// columnar trace: ..."), never an assert; \p Out is then unspecified.
  Status decodeChunk(size_t I, ColumnBatch &Out) const;

private:
  ColumnarTraceReader() = default;

  const unsigned char *Data = nullptr;
  size_t Size = 0;
  bool Mapped = false;          ///< Data came from mmap (else owned buffer).
  std::vector<unsigned char> Owned;
  std::vector<ColumnarChunkInfo> Index;
  uint64_t Total = 0;
};

/// Writes \p T as a columnar file (atomic temp + rename).
Status writeColumnarTraceFile(const Trace &T, const std::string &Path);

/// Reads a columnar file into an in-memory Trace. Fails (never asserts) on
/// corrupt data: time-order violations, process ids no TraceRecord can
/// hold, a leave or crash of a process that never joined, or more distinct
/// keys than a TraceKeyTable can intern.
Result<Trace> readColumnarTraceFile(const std::string &Path);

} // namespace dyndist

#endif // DYNDIST_SIM_TRACECOLUMNAR_H

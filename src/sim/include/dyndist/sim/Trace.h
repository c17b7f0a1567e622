//===- dyndist/sim/Trace.h - Execution traces -------------------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recorded executions. Every run of the simulator produces a Trace: the
/// ordered list of joins, leaves, crashes, message events, and
/// algorithm-reported observations. Problem checkers (e.g. the One-Time
/// Query validity checker in dyndist_core) and arrival-model admissibility
/// checkers work purely over traces, so "the algorithm is correct in this
/// class of systems" is always a statement verified against a recorded
/// execution rather than trusted from the algorithm.
///
/// Storage model: records are trivially-copyable 32-byte TraceRecords whose
/// Observe keys are dense u32 ids in the trace's TraceKeyTable, whose first
/// ids are the fixed vocabulary of TraceKeys.h. Strings cross the API
/// boundary only — hot emission paths move PODs.
/// Readers walk records() and resolve keys through keys(), or take a
/// TraceEventView of a record; the owning TraceEvent is only the append-side
/// convenience for hand-built traces and per-event sinks.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SIM_TRACE_H
#define DYNDIST_SIM_TRACE_H

#include "dyndist/sim/TraceKeys.h"
#include "dyndist/sim/Types.h"
#include "dyndist/support/FlatMap.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace dyndist {

/// How much of the execution the kernel records into its Trace.
///
/// The level only controls *recording*; it never changes the executed
/// schedule. Random streams, event ordering, and SimStats are identical
/// across levels for the same seed and configuration, so a benchmark run
/// at Off executes exactly the events a test run at Full would.
enum class TraceLevel : uint8_t {
  Off,       ///< Record nothing (benchmark fast path).
  Lifecycle, ///< Join/Leave/Crash + Observe: enough for the presence-based
             ///< admissibility checkers and algorithm-output assertions.
  Full,      ///< Everything, including per-message Send/Deliver/Drop.
};

/// Kinds of trace records.
enum class TraceKind {
  Join,    ///< Subject entered the system (became up).
  Leave,   ///< Subject left gracefully.
  Crash,   ///< Subject crashed (silent).
  Send,    ///< Subject sent a message of MsgKind to Peer.
  Deliver, ///< Subject received a message of MsgKind from Peer.
  Drop,    ///< Message from Peer to Subject was lost (dst down).
  Observe, ///< Subject reported an algorithm output (Key, Value).
};

/// One trace record with an owned key string: the append-side form for
/// hand-built traces and per-event sinks. Field meaning depends on Kind;
/// unused fields are 0.
struct TraceEvent {
  TraceKind Kind;
  SimTime Time = 0;
  ProcessId Subject = InvalidProcess;
  ProcessId Peer = InvalidProcess;
  int MsgKind = 0;
  std::string Key;
  int64_t Value = 0;
};

/// Dense interner mapping Observe keys to u32 ids. Id 0 is the empty key and
/// ids 1..TraceKeyCount are the fixed vocabulary of TraceKeys.h, present in
/// every table from construction on, so the kernel's observes and the
/// checkers use constant ids. Other keys (hand-built traces, archives,
/// foreign tables) get the next ids in first-intern order, bounded by
/// 2^24 - 1 so an id packs into TraceRecord::KindAndKey next to the kind.
///
/// Threading: intern() mutates and must only run in serial phases; no
/// kernel hook interns (actors observe vocabulary ids). find() and name()
/// are const and safe to call concurrently on a table no one is interning
/// into, which is what multi-threaded query scans do.
class TraceKeyTable {
public:
  /// Largest assignable id (24-bit packed field).
  static constexpr uint32_t MaxKeys = (1u << 24) - 1;

  /// Returns the id of \p Key, interning it first if new. Serial-phase
  /// only (see docs/LINT.md for the marker grammar below).
  // DYNDIST_SERIAL_ONLY: grows Ids/Names, racing concurrent find()/name().
  uint32_t intern(const std::string &Key) {
    if (Key.empty())
      return 0;
    if (uint32_t Id = vocabularyId(Key))
      return Id;
    auto [It, Inserted] = Ids.try_emplace(Key, nextId());
    if (Inserted) {
      assert(It->second <= MaxKeys && "trace key-id space exhausted");
      Names.push_back(Key);
    }
    return It->second;
  }

  /// The id of \p Key, or 0 when it was never interned. Note 0 is also the
  /// empty key's id: a caller that must distinguish "unknown" checks
  /// !Key.empty() itself. Safe concurrently while no intern() runs.
  uint32_t find(const std::string &Key) const {
    if (Key.empty())
      return 0;
    if (uint32_t Id = vocabularyId(Key))
      return Id;
    auto It = Ids.find(Key);
    return It == Ids.end() ? 0 : It->second;
  }

  /// The key string of \p Id ("" for id 0). The view is invalidated by the
  /// next intern().
  std::string_view name(uint32_t Id) const {
    if (Id <= TraceKeyCount)
      return TraceKeyNames[Id];
    assert(Id - TraceKeyCount - 1 < Names.size() && "unknown trace key id");
    return Names[Id - TraceKeyCount - 1];
  }

  /// Number of non-empty keys, the vocabulary included; valid ids are
  /// [0, size()].
  size_t size() const { return TraceKeyCount + Names.size(); }

  /// Arena-reset path: forgets every key beyond the vocabulary (capacity
  /// retained, nothing allocated), so a reused run numbers its other keys
  /// exactly as a fresh table would.
  // DYNDIST_SERIAL_ONLY: drops Ids/Names, racing concurrent find()/name().
  void reset() {
    Ids.clear();
    Names.clear();
  }

private:
  /// The vocabulary id of the non-empty \p Key, or 0 when it is not one.
  static uint32_t vocabularyId(std::string_view Key) {
    for (uint32_t Id = 1; Id <= TraceKeyCount; ++Id)
      if (Key == TraceKeyNames[Id])
        return Id;
    return 0;
  }
  uint32_t nextId() const { return static_cast<uint32_t>(size() + 1); }

  /// Keys beyond the vocabulary; Names[I] has id TraceKeyCount + 1 + I.
  std::vector<std::string> Names;
  /// intern()/find() only; enumeration always walks Names, whose order is
  /// first-intern order, not hash order.
  // dyndist-lint: allow(D1) keyed access only; Names carries the ordering
  std::unordered_map<std::string, uint32_t> Ids;
};

/// The POD trace record: the storage and emission format. 32 bytes,
/// trivially copyable, no heap — the kernel's record hot path is a plain
/// vector push of one of these. Subject/Peer are stored narrow (the kernel
/// already bounds process ids to u32 for its event nodes); InvalidProcess
/// narrows to UINT32_MAX and widens back losslessly. The kind and the
/// interned key id share one word: kind in the low 8 bits, key id in the
/// high 24.
struct TraceRecord {
  SimTime Time = 0;
  int64_t Value = 0;
  uint32_t SubjectId = UINT32_MAX;
  uint32_t PeerId = UINT32_MAX;
  int32_t MsgKind = 0;
  uint32_t KindAndKey = 0;

  TraceKind kind() const { return static_cast<TraceKind>(KindAndKey & 0xFF); }
  uint32_t keyId() const { return KindAndKey >> 8; }
  /// True for an Observe record of vocabulary key \p K.
  bool observes(TraceKey K) const {
    return kind() == TraceKind::Observe && keyId() == keyIdOf(K);
  }
  void setKeyId(uint32_t Id) { KindAndKey = (KindAndKey & 0xFFu) | (Id << 8); }

  ProcessId subject() const { return widen(SubjectId); }
  ProcessId peer() const { return widen(PeerId); }

  /// True when \p P survives narrow(): InvalidProcess or below UINT32_MAX.
  /// Input surfaces check this and fail instead of tripping narrow().
  static bool fits(ProcessId P) {
    return P == InvalidProcess || P < UINT32_MAX;
  }

  static uint32_t narrow(ProcessId P) {
    assert(fits(P) && "process id exceeds the trace record's u32 field");
    return P == InvalidProcess ? UINT32_MAX : static_cast<uint32_t>(P);
  }

  static ProcessId widen(uint32_t P) {
    return P == UINT32_MAX ? InvalidProcess : static_cast<ProcessId>(P);
  }

  static TraceRecord make(TraceKind K, SimTime T, ProcessId Subject,
                          ProcessId Peer = InvalidProcess, int Msg = 0,
                          uint32_t KeyId = 0, int64_t Value = 0) {
    TraceRecord R;
    R.Time = T;
    R.Value = Value;
    R.SubjectId = narrow(Subject);
    R.PeerId = narrow(Peer);
    R.MsgKind = Msg;
    R.KindAndKey = static_cast<uint32_t>(K) | (KeyId << 8);
    return R;
  }
};

static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "TraceRecord must stay a POD for flat-buffer batching");
static_assert(sizeof(TraceRecord) <= 32,
              "TraceRecord must stay within 32 bytes");

/// A decoded record whose Key borrows its storage (a key table, a mapped
/// archive): never owns memory, valid only while that storage is.
struct TraceEventView {
  TraceKind Kind = TraceKind::Join;
  SimTime Time = 0;
  ProcessId Subject = InvalidProcess;
  ProcessId Peer = InvalidProcess;
  int MsgKind = 0;
  std::string_view Key;
  int64_t Value = 0;

  /// The view of \p R with its key resolved against \p Keys.
  static TraceEventView of(const TraceRecord &R, const TraceKeyTable &Keys) {
    TraceEventView V;
    V.Kind = R.kind();
    V.Time = R.Time;
    V.Subject = R.subject();
    V.Peer = R.peer();
    V.MsgKind = R.MsgKind;
    V.Key = Keys.name(R.keyId());
    V.Value = R.Value;
    return V;
  }
};

/// Presence interval of a process: [JoinTime, EndTime), with EndTime absent
/// while the process is still up at the end of the run.
struct PresenceInterval {
  SimTime JoinTime = 0;
  std::optional<SimTime> EndTime;
  bool Crashed = false;

  /// True when the process is up at \p T.
  bool upAt(SimTime T) const {
    return T >= JoinTime && (!EndTime || T < *EndTime);
  }

  /// True when the process is up during the whole closed interval
  /// [\p From, \p To].
  bool upThroughout(SimTime From, SimTime To) const {
    return JoinTime <= From && (!EndTime || *EndTime > To);
  }
};

/// The recorded execution: a flat vector of POD TraceRecords plus the key
/// table their Observe ids resolve against. Every const member is safe to
/// call concurrently: nothing is materialized lazily.
class Trace {
public:
  /// A fresh trace adopts a retired record buffer from a thread-local
  /// recycling pool when one is available; the destructor donates the
  /// buffer back. Keeping the vector alive keeps its pages mapped, so a
  /// fresh Simulator appends into already-faulted memory instead of
  /// re-faulting (and growth-copying) tens of MB per run.
  Trace();
  ~Trace();
  Trace(Trace &&) = default;
  Trace &operator=(Trace &&) = default;
  Trace(const Trace &) = default;
  Trace &operator=(const Trace &) = default;

  /// Appends one record (the kernel's hot path). An out-of-time-order
  /// record is dropped and latched as a deferred error (the same contract
  /// as the columnar writer): check timeOrderViolated() — the file writers
  /// do, and refuse to serialize a misordered trace.
  // DYNDIST_SERIAL_ONLY: appends to the shared record vector; lanes buffer
  // into per-lane TraceBufs merged at the barrier.
  void appendRecord(const TraceRecord &R);

  /// String-keyed append: interns \p E.Key and forwards to appendRecord().
  void append(TraceEvent E);

  /// Appends \p N records whose key ids resolve against a *foreign* table
  /// \p Keys, re-interning each key into this trace's table.
  // DYNDIST_SERIAL_ONLY: re-interns foreign keys into the shared table.
  void appendBatch(const TraceRecord *R, size_t N, const TraceKeyTable &Keys);

  /// All records in time order (the fast API).
  const std::vector<TraceRecord> &records() const { return Records; }

  /// The key table Observe records' keyId() fields resolve against.
  const TraceKeyTable &keys() const { return Keys; }
  TraceKeyTable &keys() { return Keys; }

  /// True once an out-of-order append was rejected. The misordered record
  /// is not stored; serializers fail instead of writing a corrupt frame.
  bool timeOrderViolated() const { return OrderViolated; }

  /// Presence interval per process that ever joined, ascending by id.
  const FlatMap<ProcessId, PresenceInterval> &presence() const {
    return Intervals;
  }

  /// Processes up at time \p T.
  std::vector<ProcessId> membersAt(SimTime T) const;

  /// Number of processes up at time \p T — membersAt(T).size() without
  /// materializing the member set.
  size_t membersCountAt(SimTime T) const;

  /// Processes up during the whole closed interval [\p From, \p To].
  std::vector<ProcessId> membersThroughout(SimTime From, SimTime To) const;

  /// Largest number of simultaneously-up processes over the run. This is
  /// the empirical concurrency of the execution, checked against the
  /// declared arrival model's bound. O(1): appendRecord() folds it.
  size_t maxConcurrency() const;

  /// Total number of distinct processes that ever joined.
  size_t totalArrivals() const { return Intervals.size(); }

  /// First Observe record with key \p Key by \p Subject, if any.
  std::optional<TraceEvent> firstObservation(ProcessId Subject,
                                             const std::string &Key) const;

  /// First Observe record with interned key \p KeyId by \p Subject, if any
  /// (the allocation-free variant checkers use in their scan loops).
  std::optional<TraceRecord> firstObservationRecord(ProcessId Subject,
                                                    uint32_t KeyId) const;

  /// Count of records with the given kind.
  size_t countKind(TraceKind Kind) const;

  /// Discards all records; the key table is retained.
  void clear();

  /// Arena-reset path: clear() plus a key-table reset, leaving the trace
  /// logically indistinguishable from a fresh one while every buffer keeps
  /// its capacity. Vocabulary ids are the same before and after; ids of
  /// other keys are forgotten, so a reused run numbers them as a fresh one.
  // DYNDIST_SERIAL_ONLY: resets the shared key table between runs.
  void resetForReuse();

private:
  std::vector<TraceRecord> Records;
  TraceKeyTable Keys;
  FlatMap<ProcessId, PresenceInterval> Intervals;
  size_t Up = 0;   ///< Processes up after the last membership record.
  size_t Peak = 0; ///< Largest count at an instant before MembershipTime.
  SimTime MembershipTime = 0; ///< Instant of the last membership record.
  bool OrderViolated = false;
};

} // namespace dyndist

#endif // DYNDIST_SIM_TRACE_H

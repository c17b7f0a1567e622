//===- BaseRegister.cpp - Unreliable register ----------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/objects/BaseRegister.h"

#include <cassert>

using namespace dyndist;

BaseRegister::BaseRegister(FailureMode Mode) : Mode(Mode) {}

TaggedValue BaseRegister::readLocked() const {
  TaggedValue Freshest = Slots.front();
  for (const TaggedValue &V : Slots)
    if (V.Seq > Freshest.Seq)
      Freshest = V;
  return Freshest;
}

void BaseRegister::writeLocked(size_t Slot, TaggedValue V) {
  if (Slot >= Slots.size())
    Slots.resize(Slot + 1);
  Slots[Slot] = V;
}

void BaseRegister::asyncRead(ReadCallback Done) {
  assert(Done && "read needs a completion callback");
  std::optional<TaggedValue> Inline;
  bool CompleteInline = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    switch (State) {
    case ObjectState::Ok:
      Inline = readLocked();
      CompleteInline = true;
      break;
    case ObjectState::Suspended: {
      Pending P;
      P.IsRead = true;
      P.ReadDone = std::move(Done);
      Deferred.push_back(std::move(P));
      return;
    }
    case ObjectState::Crashed:
      if (Mode == FailureMode::Responsive) {
        Inline = std::nullopt;
        CompleteInline = true;
      } else {
        ++Dropped;
      }
      break;
    }
  }
  if (CompleteInline)
    Done(Inline);
}

void BaseRegister::asyncWrite(TaggedValue V, WriteCallback Done,
                              size_t Slot) {
  assert(Done && "write needs a completion callback");
  bool CompleteInline = false;
  bool Ack = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    switch (State) {
    case ObjectState::Ok:
      writeLocked(Slot, V);
      Ack = true;
      CompleteInline = true;
      break;
    case ObjectState::Suspended: {
      Pending P;
      P.IsRead = false;
      P.WriteValue = V;
      P.WriteSlot = Slot;
      P.WriteDone = std::move(Done);
      Deferred.push_back(std::move(P));
      return;
    }
    case ObjectState::Crashed:
      if (Mode == FailureMode::Responsive) {
        Ack = false;
        CompleteInline = true;
      } else {
        ++Dropped;
      }
      break;
    }
  }
  if (CompleteInline)
    Done(Ack);
}

void BaseRegister::crash() {
  std::vector<Pending> Orphans;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (State == ObjectState::Crashed)
      return;
    State = ObjectState::Crashed;
    Orphans.swap(Deferred);
    if (Mode == FailureMode::Nonresponsive)
      Dropped += Orphans.size();
  }
  if (Mode == FailureMode::Responsive) {
    // Suspended operations are answered ⊥; their effects never happen.
    for (Pending &P : Orphans) {
      if (P.IsRead)
        P.ReadDone(std::nullopt);
      else
        P.WriteDone(false);
    }
  }
}

void BaseRegister::suspend() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (State == ObjectState::Ok)
    State = ObjectState::Suspended;
}

void BaseRegister::resume() {
  // Drain one deferred operation at a time so effects and completions
  // interleave in invocation order even if callbacks re-enter this object.
  for (;;) {
    Pending P;
    std::optional<TaggedValue> ReadResult;
    bool Ack = false;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (State == ObjectState::Suspended)
        State = ObjectState::Ok;
      if (State != ObjectState::Ok || Deferred.empty())
        return;
      P = std::move(Deferred.front());
      Deferred.erase(Deferred.begin());
      if (P.IsRead) {
        ReadResult = readLocked();
      } else {
        writeLocked(P.WriteSlot, P.WriteValue);
        Ack = true;
      }
    }
    if (P.IsRead)
      P.ReadDone(ReadResult);
    else
      P.WriteDone(Ack);
  }
}

void BaseRegister::resumeOne(size_t Index) {
  Pending P;
  std::optional<TaggedValue> ReadResult;
  bool Ack = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (State != ObjectState::Suspended || Index >= Deferred.size())
      return;
    P = std::move(Deferred[Index]);
    Deferred.erase(Deferred.begin() + static_cast<long>(Index));
    if (P.IsRead) {
      ReadResult = readLocked();
    } else {
      writeLocked(P.WriteSlot, P.WriteValue);
      Ack = true;
    }
  }
  if (P.IsRead)
    P.ReadDone(ReadResult);
  else
    P.WriteDone(Ack);
}

size_t BaseRegister::deferredCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Deferred.size();
}

ObjectState BaseRegister::state() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return State;
}

uint64_t BaseRegister::droppedOps() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Dropped;
}

//===- MajorityRegister.cpp - 2t+1 construction --------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/registers/MajorityRegister.h"

#include <cassert>

using namespace dyndist;

MajorityRegister::MajorityRegister(size_t NumBases, size_t Tolerated,
                                   bool AllowUnderprovisioned)
    : Tolerated(Tolerated) {
  assert(NumBases > Tolerated && "cannot tolerate every base failing");
  assert((AllowUnderprovisioned || NumBases >= 2 * Tolerated + 1) &&
         "majority construction needs n >= 2t+1");
  (void)AllowUnderprovisioned;
  for (size_t I = 0; I != NumBases; ++I)
    Bases.push_back(
        std::make_shared<BaseRegister>(FailureMode::Nonresponsive));
}

MajorityRegister::MajorityRegister(
    std::vector<std::shared_ptr<BaseRegister>> Bases, size_t Tolerated,
    bool AllowUnderprovisioned)
    : Bases(std::move(Bases)), Tolerated(Tolerated) {
  assert(this->Bases.size() > Tolerated && "cannot tolerate every base");
  assert((AllowUnderprovisioned ||
          this->Bases.size() >= 2 * Tolerated + 1) &&
         "majority construction needs n >= 2t+1");
  (void)AllowUnderprovisioned;
}

// Only real replies count toward a quorum: a ⊥ (responsive-crash answer)
// is treated like the silence of a nonresponsive crash. With at most t
// failed bases, n-t correct ones still answer for real, so await returns
// under exactly the liveness condition of the nonresponsive model.

void MajorityRegister::quorumWrite(TaggedValue V, size_t Slot) {
  auto Latch = std::make_shared<QuorumLatch>(Bases.size() - Tolerated);
  for (auto &B : Bases) {
    ++BaseOps;
    B->asyncWrite(
        V,
        [Latch](bool Ack) {
          if (Ack)
            Latch->arrive();
        },
        Slot);
  }
  Latch->await();
}

TaggedValue MajorityRegister::quorumRead() {
  auto Latch = std::make_shared<QuorumLatch>(Bases.size() - Tolerated);
  auto Best = std::make_shared<TaggedValue>();
  for (auto &B : Bases) {
    ++BaseOps;
    B->asyncRead([Latch, Best](std::optional<TaggedValue> V) {
      if (!V)
        return;
      Latch->withLock([&] {
        if (V->Seq > Best->Seq)
          *Best = *V;
      });
      Latch->arrive();
    });
  }
  Latch->await();
  TaggedValue Result;
  Latch->withLock([&] { Result = *Best; });
  return Result;
}

void MajorityRegister::write(int64_t Value) {
  TaggedValue V{NextSeq.fetch_add(1) + 1, Value};
  quorumWrite(V, /*Slot=*/0);
}

int64_t MajorityRegister::read(size_t ReaderIndex) {
  TaggedValue Freshest = quorumRead();
  if (WriteBack) // Later reads cannot see older values.
    quorumWrite(Freshest, /*Slot=*/ReaderIndex + 1);
  return Freshest.Value;
}

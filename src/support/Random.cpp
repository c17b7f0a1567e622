//===- Random.cpp - Deterministic random numbers --------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/support/Random.h"

#include <cmath>

using namespace dyndist;

uint64_t dyndist::splitMix64(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) {
  return (X << K) | (X >> (64 - K));
}

Rng::Rng(uint64_t Seed) {
  uint64_t S = Seed;
  for (uint64_t &Word : State)
    Word = splitMix64(S);
}

uint64_t Rng::next() {
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

uint64_t Rng::nextBelow(uint64_t Bound) {
  assert(Bound > 0 && "nextBelow() requires a positive bound");
  // Rejection sampling to avoid modulo bias: a draw is rejected iff it is
  // below Threshold = 2^64 mod Bound. Threshold < Bound, so only a draw
  // below Bound can be rejected, and only then is the division that
  // computes Threshold paid (the values and draws are those of computing
  // it up front).
  for (;;) {
    uint64_t Value = next();
    if (Value >= Bound)
      return Value % Bound;
    if (Value >= (0 - Bound) % Bound)
      return Value;
  }
}

int64_t Rng::nextInRange(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "nextInRange() requires Lo <= Hi");
  uint64_t Span = static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo) + 1;
  if (Span == 0) // Full 64-bit range.
    return static_cast<int64_t>(next());
  return Lo + static_cast<int64_t>(nextBelow(Span));
}

double Rng::nextDouble() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::nextBernoulli(double P) {
  if (P <= 0.0)
    return false;
  if (P >= 1.0)
    return true;
  return nextDouble() < P;
}

double Rng::nextExponential(double Lambda) {
  assert(Lambda > 0.0 && "exponential rate must be positive");
  double U;
  do {
    U = nextDouble();
  } while (U == 0.0);
  return -std::log(U) / Lambda;
}

uint64_t Rng::nextPoisson(double Mean) {
  assert(Mean >= 0.0 && "Poisson mean must be non-negative");
  if (Mean == 0.0)
    return 0;
  if (Mean > 64.0) {
    double Approx = Mean + std::sqrt(Mean) * nextNormal();
    if (Approx < 0.0)
      return 0;
    return static_cast<uint64_t>(std::llround(Approx));
  }
  // Knuth's product method.
  double L = std::exp(-Mean);
  uint64_t K = 0;
  double Product = 1.0;
  do {
    ++K;
    Product *= nextDouble();
  } while (Product > L);
  return K - 1;
}

uint64_t Rng::nextGeometric(double P) {
  assert(P > 0.0 && P <= 1.0 && "geometric probability must be in (0, 1]");
  if (P == 1.0)
    return 0;
  double U;
  do {
    U = nextDouble();
  } while (U == 0.0);
  return static_cast<uint64_t>(std::floor(std::log(U) / std::log1p(-P)));
}

double Rng::nextNormal() {
  double U1, U2;
  do {
    U1 = nextDouble();
  } while (U1 == 0.0);
  U2 = nextDouble();
  return std::sqrt(-2.0 * std::log(U1)) * std::cos(6.28318530717958647692 * U2);
}

double Rng::nextPareto(double Xm, double Alpha) {
  assert(Xm > 0.0 && Alpha > 0.0 && "Pareto parameters must be positive");
  double U;
  do {
    U = nextDouble();
  } while (U == 0.0);
  return Xm / std::pow(U, 1.0 / Alpha);
}

Rng Rng::split() {
  // Mix two outputs into a child seed; streams of parent and child are
  // decorrelated for all practical purposes.
  uint64_t Seed = next() ^ rotl(next(), 32);
  return Rng(Seed);
}

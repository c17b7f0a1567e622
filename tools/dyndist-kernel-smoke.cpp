//===- dyndist-kernel-smoke.cpp - sharded-kernel invariance smoke ---------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Runs the gossip + churn KernelLoad once per requested shard count and
// prints one digest line per rung: the six schedule counters, the stop
// reason, and the pending-timer count. Every sharded rung (K >= 1) must
// produce the same digest — the space-sharded engine's schedule is
// byte-identical at any K — so the tool exits 1 on the first mismatch.
// The legacy rung (K = 0) is printed for reference but excluded from the
// comparison: it is a different (also deterministic) schedule.
//
// tools/verify.sh drives this twice: at n = 10^5 in the plain pass, and
// threaded-vs-inline (DYNDIST_SHARD_THREADS=1) under ThreadSanitizer,
// comparing the two outputs byte-for-byte. The columnar-trace and
// arena-reset contracts are ctests (TraceColumnar.ShardCountInvariantFiles,
// TraceColumnar.FramingIsAppendScheduleInvariant and
// ArenaReset.ByteIdenticalToFreshAcrossFamiliesAndShards).
//
//   dyndist-kernel-smoke [options]
//     --processes <n>     initial population      (default 100000)
//     --horizon <t>       run end                 (default 60)
//     --shards <list>     comma list, e.g. 0,1,2,4 (default 1,2,4)
//     --trace-out <path>  archive mode (see below)
//
// The workload gossips every 4 ticks with fanout 2 and crashes/respawns
// every 25 ticks, from seed 42.
//
// --trace-out <path> is the archive mode verify.sh uses to fabricate large
// query fixtures: one run at the first listed shard count, streamed
// through a columnar sink to <path> at TraceLevel::Full, event count on
// stdout. No invariance comparison — just the file.
//
//===----------------------------------------------------------------------===//

#include "dyndist/runtime/KernelLoad.h"
#include "dyndist/sim/TraceColumnar.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace dyndist;

namespace {

[[noreturn]] void usageError(const char *Message) {
  std::fprintf(stderr, "dyndist-kernel-smoke: %s\n", Message);
  std::exit(2);
}

uint64_t parseU64(const char *Text, const char *Flag) {
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0')
    usageError((std::string("bad value for ") + Flag).c_str());
  return Value;
}

std::vector<unsigned> parseShardList(const char *Text) {
  std::vector<unsigned> Shards;
  const char *Cursor = Text;
  while (*Cursor != '\0') {
    char *End = nullptr;
    unsigned long Value = std::strtoul(Cursor, &End, 10);
    if (End == Cursor)
      usageError("bad --shards list");
    Shards.push_back(static_cast<unsigned>(Value));
    Cursor = End;
    if (*Cursor == ',')
      ++Cursor;
    else if (*Cursor != '\0')
      usageError("bad --shards list");
  }
  if (Shards.empty())
    usageError("--shards list is empty");
  return Shards;
}

const char *stopName(StopReason Stop) {
  switch (Stop) {
  case StopReason::QueueExhausted:
    return "queue-exhausted";
  case StopReason::TimeLimit:
    return "time-limit";
  case StopReason::EventLimit:
    return "event-limit";
  case StopReason::Halted:
    return "halted";
  }
  return "unknown";
}

/// The schedule digest: everything about a run that the K-invariance
/// contract pins down. Allocation-economy counters (BodyPool hits/misses)
/// legitimately vary with K — per-lane pool freelists are an execution
/// arrangement, not a schedule property — so they are not part of this.
struct Digest {
  uint64_t Sent, Delivered, Dropped, Payload, Timers, Events;
  StopReason Stop;
  size_t PendingTimers;

  bool operator==(const Digest &) const = default;
};

Digest digestOf(const KernelLoadResult &R) {
  return {R.Stats.MessagesSent,   R.Stats.MessagesDelivered,
          R.Stats.MessagesDropped, R.Stats.PayloadUnits,
          R.Stats.TimersFired,     R.Stats.EventsExecuted,
          R.Stop,                  R.PendingTimers};
}

/// FNV-1a over the whole file, printed with the archive.
bool fileDigest(const char *Path, uint64_t &Out) {
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return false;
  uint64_t H = 1469598103934665603ULL;
  unsigned char Buf[65536];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    for (size_t I = 0; I != Got; ++I) {
      H ^= Buf[I];
      H *= 1099511628211ULL;
    }
  bool Bad = std::ferror(F) != 0;
  std::fclose(F);
  Out = H;
  return !Bad;
}

/// Streams one workload run through a columnar sink at TraceLevel::Full
/// and fills the file's digest. Returns false (with a message) on any
/// failure.
bool writeArchive(KernelLoadConfig Cfg, const char *Path, uint64_t &DigestOut,
                  uint64_t &EventsOut) {
  ColumnarTraceWriter W;
  if (Status S = W.open(Path); !S) {
    std::fprintf(stderr, "dyndist-kernel-smoke: %s\n", S.error().str().c_str());
    return false;
  }
  Cfg.Sink = &W;
  runKernelLoad(Cfg, TraceLevel::Full);
  EventsOut = W.eventsWritten();
  if (Status S = W.close(); !S) {
    std::fprintf(stderr, "dyndist-kernel-smoke: %s\n", S.error().str().c_str());
    return false;
  }
  if (!fileDigest(Path, DigestOut)) {
    std::fprintf(stderr, "dyndist-kernel-smoke: cannot digest %s\n", Path);
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  KernelLoadConfig Cfg;
  Cfg.Processes = 100000;
  Cfg.Horizon = 60;
  Cfg.GossipEvery = 4;
  Cfg.GossipFanout = 2;
  Cfg.ChurnEvery = 25;
  Cfg.Seed = 42;
  std::vector<unsigned> Shards = {1, 2, 4};
  const char *TraceOut = nullptr;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= argc)
        usageError((std::string("missing value after ") + Arg).c_str());
      return argv[++I];
    };
    if (std::strcmp(Arg, "--processes") == 0)
      Cfg.Processes = static_cast<size_t>(parseU64(next(), Arg));
    else if (std::strcmp(Arg, "--horizon") == 0)
      Cfg.Horizon = parseU64(next(), Arg);
    else if (std::strcmp(Arg, "--shards") == 0)
      Shards = parseShardList(next());
    else if (std::strcmp(Arg, "--trace-out") == 0)
      TraceOut = next();
    else if (std::strcmp(Arg, "--help") == 0) {
      std::printf("usage: dyndist-kernel-smoke [--processes n] [--horizon t]\n"
                  "         [--shards 0,1,2,4] [--trace-out path]\n");
      return 0;
    } else
      usageError((std::string("unknown option ") + Arg).c_str());
  }

  if (TraceOut != nullptr) {
    Cfg.Shards = Shards.front();
    uint64_t Digest = 0, Events = 0;
    if (!writeArchive(Cfg, TraceOut, Digest, Events))
      return 2;
    std::printf("wrote %s: %llu events, digest=%016llx\n", TraceOut,
                (unsigned long long)Events, (unsigned long long)Digest);
    return 0;
  }

  bool HaveReference = false;
  Digest Reference{};
  unsigned ReferenceK = 0;
  for (unsigned K : Shards) {
    Cfg.Shards = K;
    KernelLoadResult R = runKernelLoad(Cfg, TraceLevel::Off);
    Digest D = digestOf(R);
    std::printf("shards=%u events=%llu sent=%llu delivered=%llu dropped=%llu "
                "payload=%llu timers=%llu stop=%s pending=%zu\n",
                K, (unsigned long long)D.Events, (unsigned long long)D.Sent,
                (unsigned long long)D.Delivered,
                (unsigned long long)D.Dropped,
                (unsigned long long)D.Payload,
                (unsigned long long)D.Timers, stopName(D.Stop),
                D.PendingTimers);
    if (K == 0)
      continue; // Legacy rung: a different schedule, reference only.
    if (!HaveReference) {
      HaveReference = true;
      Reference = D;
      ReferenceK = K;
    } else if (!(D == Reference)) {
      std::fprintf(stderr,
                   "dyndist-kernel-smoke: shards=%u digest differs from "
                   "shards=%u — K-invariance violated\n",
                   K, ReferenceK);
      return 1;
    }
  }
  return 0;
}

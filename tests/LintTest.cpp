//===- LintTest.cpp - dyndist-lint rule engine tests ----------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Per-rule fixture tests (positive and negative) for the determinism and
// phase-safety linter, suppression-grammar tests (including missing-reason
// rejection), JSON report shape, and a zero-findings run over the real
// source tree (DYNDIST_LINT_SOURCE_ROOT, injected by CMake).
//
// Every Dn rule has at least one fixture that FAILS if the rule is removed:
// the positive fixtures assert the finding exists.
//
//===----------------------------------------------------------------------===//

#include "dyndist/analysis/Linter.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

using dyndist::analysis::Finding;
using dyndist::analysis::LintResult;
using dyndist::analysis::Linter;

namespace {

LintResult
lintFiles(const std::vector<std::pair<std::string, std::string>> &Files) {
  Linter L;
  for (const auto &[Path, Text] : Files)
    L.addSource(Path, Text);
  return L.run();
}

LintResult lintOne(const std::string &Path, const std::string &Text) {
  return lintFiles({{Path, Text}});
}

/// Findings for \p Rule, including suppressed ones.
std::vector<Finding> byRule(const LintResult &R, const std::string &Rule) {
  std::vector<Finding> Out;
  for (const Finding &F : R.Findings)
    if (F.Rule == Rule)
      Out.push_back(F);
  return Out;
}

size_t countRule(const LintResult &R, const std::string &Rule) {
  return byRule(R, Rule).size();
}

} // namespace

//===----------------------------------------------------------------------===//
// D1: unordered iteration + unordered declarations in src/
//===----------------------------------------------------------------------===//

TEST(LintD1, RangeForOverUnorderedIsFlagged) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    #include <unordered_map>
    struct S {
      std::unordered_map<int, int> Counts;
      int sum() {
        int N = 0;
        for (const auto &KV : Counts)
          N += KV.second;
        return N;
      }
    };
  )lint");
  // One decl finding (unproven unordered member in src/) plus the
  // iteration finding; the iteration is the one anchored at the for line.
  auto D1 = byRule(R, "D1");
  ASSERT_EQ(D1.size(), 2u);
  bool SawIteration = false;
  for (const Finding &F : D1)
    if (F.Message.find("range-for") != std::string::npos)
      SawIteration = true;
  EXPECT_TRUE(SawIteration);
}

TEST(LintD1, BeginIteratorLoopIsFlagged) {
  LintResult R = lintOne("tests/A.cpp", R"lint(
    #include <unordered_set>
    int count(std::unordered_set<int> &Seen) {
      int N = 0;
      for (auto It = Seen.begin(); It != Seen.end(); ++It)
        ++N;
      return N;
    }
  )lint");
  EXPECT_EQ(countRule(R, "D1"), 1u) << "member .begin() must be flagged";

  LintResult R2 = lintOne("tests/B.cpp", R"lint(
    #include <unordered_set>
    int count(std::unordered_set<int> &Seen) {
      auto It = std::begin(Seen);
      return It != std::end(Seen);
    }
  )lint");
  EXPECT_EQ(countRule(R2, "D1"), 1u) << "free std::begin(set) must be flagged";
}

TEST(LintD1, KeyedLookupStaysLegal) {
  LintResult R = lintOne("tests/A.cpp", R"lint(
    #include <unordered_map>
    int lookup(std::unordered_map<int, int> &M, int K) {
      auto It = M.find(K);
      return It == M.end() ? 0 : It->second;
    }
  )lint");
  EXPECT_EQ(countRule(R, "D1"), 0u)
      << "find()/end() lookups are not iteration";
}

TEST(LintD1, OrderedContainersAreNotFlagged) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    #include <map>
    struct S {
      std::map<int, int> Counts;
      int sum() {
        int N = 0;
        for (const auto &KV : Counts)
          N += KV.second;
        return N;
      }
    };
  )lint");
  EXPECT_EQ(countRule(R, "D1"), 0u);
}

TEST(LintD1, SrcDeclarationNeedsProofButTestDeclDoesNot) {
  const char *Fixture = R"lint(
    #include <unordered_map>
    struct S { std::unordered_map<int, int> Lookup; };
  )lint";
  LintResult InSrc = lintOne("src/x/A.h", Fixture);
  EXPECT_EQ(countRule(InSrc, "D1"), 1u)
      << "unordered member in src/ requires an allow(D1) proof";
  LintResult InTests = lintOne("tests/A.h", Fixture);
  EXPECT_EQ(countRule(InTests, "D1"), 0u)
      << "declaration check is scoped to src/";
}

//===----------------------------------------------------------------------===//
// D2: nondeterminism sources in src/
//===----------------------------------------------------------------------===//

TEST(LintD2, BannedSourcesInSrc) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    #include <chrono>
    #include <cstdlib>
    #include <ctime>
    #include <thread>
    unsigned long entropy() {
      std::srand(42);
      unsigned long N = std::rand();
      N += time(nullptr);
      auto T = std::chrono::steady_clock::now();
      (void)T;
      auto Id = std::this_thread::get_id();
      (void)Id;
      const char *E = std::getenv("HOME");
      return N + (E != nullptr);
    }
  )lint");
  EXPECT_EQ(countRule(R, "D2"), 6u)
      << "srand + rand + time + steady_clock + get_id + getenv";
}

TEST(LintD2, OutsideSrcIsLegal) {
  LintResult R = lintOne("bench/A.cpp", R"lint(
    #include <chrono>
    long now() {
      return std::chrono::steady_clock::now().time_since_epoch().count();
    }
  )lint");
  EXPECT_EQ(countRule(R, "D2"), 0u) << "bench/ may read real clocks";
}

TEST(LintD2, MemberAndQualifiedNamesAreNotConfused) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    struct Clockish;
    long f(Clockish &C) { return C.time(1) + C.rand() + Clockish::rand(); }
  )lint");
  EXPECT_EQ(countRule(R, "D2"), 0u)
      << "member calls and non-std qualified names are not the libc ones";
}

//===----------------------------------------------------------------------===//
// D3: pointer-order hazards
//===----------------------------------------------------------------------===//

TEST(LintD3, PointerKeyedOrderedContainers) {
  LintResult R = lintOne("src/x/A.h", R"lint(
    #include <map>
    #include <set>
    struct Node;
    struct S {
      std::map<Node *, int> ByNode;
      std::set<const Node *> Seen;
      std::map<int, Node *> ByIdx; // pointer VALUES are fine
    };
  )lint");
  EXPECT_EQ(countRule(R, "D3"), 2u)
      << "pointer keys order by address; pointer mapped-values do not";
}

TEST(LintD3, ComparatorlessPointerSort) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    #include <algorithm>
    #include <vector>
    struct Node { int Id; };
    void canonicalize(std::vector<Node *> &Work) {
      std::sort(Work.begin(), Work.end());
    }
  )lint");
  EXPECT_EQ(countRule(R, "D3"), 1u);

  LintResult R2 = lintOne("src/x/B.cpp", R"lint(
    #include <algorithm>
    #include <vector>
    struct Node { int Id; };
    void canonicalize(std::vector<Node *> &Work) {
      std::sort(Work.begin(), Work.end(),
                [](const Node *A, const Node *B) { return A->Id < B->Id; });
    }
  )lint");
  EXPECT_EQ(countRule(R2, "D3"), 0u)
      << "an explicit by-value comparator makes the order stable";
}

//===----------------------------------------------------------------------===//
// D4: RNG discipline
//===----------------------------------------------------------------------===//

TEST(LintD4, RawEnginesOnlyInRandomCpp) {
  const char *Fixture = R"lint(
    #include <random>
    unsigned draw() { std::mt19937 G(7); return G(); }
  )lint";
  EXPECT_EQ(countRule(lintOne("src/x/A.cpp", Fixture), "D4"), 1u);
  EXPECT_EQ(countRule(lintOne("tests/A.cpp", Fixture), "D4"), 1u)
      << "RNG discipline is repo-wide, not src/-only";
  EXPECT_EQ(countRule(lintOne("src/support/Random.cpp", Fixture), "D4"), 0u)
      << "the one sanctioned implementation file";
}

TEST(LintD4, RandomDeviceIsAlsoAnEngine) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    #include <random>
    unsigned seed() { return std::random_device{}(); }
  )lint");
  EXPECT_EQ(countRule(R, "D4"), 1u);
}

//===----------------------------------------------------------------------===//
// D5: phase safety
//===----------------------------------------------------------------------===//

namespace {
/// A miniature engine shaped like ShardEngine: a serial-only intern, a
/// lane-phase root, and a helper between them.
const char *PhaseFixture = R"lint(
    struct Table {
      // DYNDIST_SERIAL_ONLY: grows the shared table.
      unsigned intern(int K) { return K + 1u; }
      unsigned find(int K) const { return K ? 1u : 0u; }
    };
    struct Engine {
      Table T;
      unsigned helper(int K) { return T.intern(K); }
      // DYNDIST_LANE_PHASE: runs concurrently on worker lanes.
      void laneHook(int K) { helper(K); }
    };
  )lint";
} // namespace

TEST(LintD5, SerialOnlyReachableFromLaneRoot) {
  LintResult R = lintOne("src/x/Engine.cpp", PhaseFixture);
  auto D5 = byRule(R, "D5");
  ASSERT_EQ(D5.size(), 1u);
  EXPECT_NE(D5[0].Message.find("intern"), std::string::npos);
  EXPECT_NE(D5[0].Message.find("laneHook -> helper"), std::string::npos)
      << "diagnostic must carry the witness chain";
}

TEST(LintD5, LaneSafeLookupIsLegal) {
  LintResult R = lintOne("src/x/Engine.cpp", R"lint(
    struct Table {
      // DYNDIST_SERIAL_ONLY: grows the shared table.
      unsigned intern(int K) { return K + 1u; }
      unsigned find(int K) const { return K ? 1u : 0u; }
    };
    struct Engine {
      Table T;
      // DYNDIST_LANE_PHASE: runs concurrently on worker lanes.
      unsigned laneHook(int K) { return T.find(K); }
    };
  )lint");
  EXPECT_EQ(countRule(R, "D5"), 0u) << "find() on the frozen table is legal";
}

TEST(LintD5, SerialContextCutsTheWalk) {
  LintResult R = lintOne("src/x/Engine.cpp", R"lint(
    struct Table {
      // DYNDIST_SERIAL_ONLY: grows the shared table.
      unsigned intern(int K) { return K + 1u; }
    };
    // DYNDIST_SERIAL_CONTEXT: constructed only between parallel rounds.
    struct EnvSide {
      Table &T;
      unsigned observe(int K) { return T.intern(K); }
    };
    struct Engine {
      // DYNDIST_LANE_PHASE: runs concurrently on worker lanes.
      void laneHook(int K) { observe(K); }
      void observe(int K) { (void)K; }
    };
  )lint");
  EXPECT_EQ(countRule(R, "D5"), 0u)
      << "the serial-context overload must not poison same-name dispatch";
}

TEST(LintD5, LaneRegionSeedsTheWalk) {
  LintResult R = lintOne("src/x/Engine.cpp", R"lint(
    struct Table {
      // DYNDIST_SERIAL_ONLY: grows the shared table.
      unsigned intern(int K) { return K + 1u; }
    };
    struct Engine {
      Table T;
      void round() {
        T.intern(1); // serial part of the driver: legal
        // DYNDIST_LANE_REGION_BEGIN: fans out across lanes.
        auto Job = [this](int K) { T.intern(K); };
        // DYNDIST_LANE_REGION_END
        Job(2);
      }
    };
  )lint");
  auto D5 = byRule(R, "D5");
  ASSERT_EQ(D5.size(), 1u) << "only the bracketed call is a violation";
  EXPECT_NE(D5[0].Message.find("lane region"), std::string::npos);
}

TEST(LintD5, ScopedToSrcTree) {
  LintResult R = lintOne("tests/Engine.cpp", PhaseFixture);
  EXPECT_EQ(countRule(R, "D5"), 0u)
      << "test-local fixtures are exercised dynamically, not statically";
}

TEST(LintD5, ClassMarkerReachesOutOfLineMembers) {
  const char *Impl = R"lint(
      #include "Engine.h"
      unsigned EnvSide::observe(int K) { Table T; return T.intern(K); }
      // DYNDIST_LANE_PHASE: worker-lane entry point.
      void Engine::laneHook(int K) { observe(K); }
    )lint";
  // Without the class-head SERIAL_CONTEXT, name dispatch from the lane
  // root crosses into EnvSide::observe and reaches the serial intern.
  LintResult Bare = lintFiles({{"src/x/Engine.h", R"lint(
      struct Table {
        // DYNDIST_SERIAL_ONLY: grows the shared table.
        unsigned intern(int K);
      };
      struct EnvSide { unsigned observe(int K); };
    )lint"},
                               {"src/x/Engine.cpp", Impl}});
  EXPECT_EQ(countRule(Bare, "D5"), 1u)
      << "the walk must flow through the out-of-line member";
  // The class-head marker in the header must cover the out-of-line
  // definition in the other file via its EnvSide:: qualifier.
  LintResult Marked = lintFiles({{"src/x/Engine.h", R"lint(
      struct Table {
        // DYNDIST_SERIAL_ONLY: grows the shared table.
        unsigned intern(int K);
      };
      // DYNDIST_SERIAL_CONTEXT: serial phases only.
      struct EnvSide { unsigned observe(int K); };
    )lint"},
                                 {"src/x/Engine.cpp", Impl}});
  EXPECT_EQ(countRule(Marked, "D5"), 0u)
      << "SERIAL_CONTEXT on the class head must cover out-of-line members";
}

TEST(LintD5, SimulatorSerialEntryPointsAreMarked) {
  // Both engines' serial phases send, arm, cancel, spawn and leave through
  // the Simulator's own entry points; the real header must mark each one
  // serial-only, so a lane-phase call to any of them is a D5 finding.
  const std::string HeaderPath = "src/sim/include/dyndist/sim/Simulator.h";
  std::ifstream In(std::string(DYNDIST_LINT_SOURCE_ROOT) + "/" + HeaderPath);
  std::stringstream Header;
  Header << In.rdbuf();
  ASSERT_FALSE(Header.str().empty()) << "cannot read " << HeaderPath;
  const std::pair<const char *, const char *> Calls[] = {
      {"sendMessage", "S.sendMessage(0, 1, nullptr);"},
      {"injectStimulus", "S.injectStimulus(1, nullptr);"},
      {"armTimer", "S.armTimer(0, 1);"},
      {"disarmTimer", "S.disarmTimer(1);"},
      {"spawn", "S.spawn(nullptr);"},
      {"leave", "S.leave(0);"},
  };
  for (const auto &[Name, Call] : Calls) {
    LintResult R = lintFiles(
        {{HeaderPath, Header.str()},
         {"src/x/Lane.cpp",
          std::string("// DYNDIST_LANE_PHASE: runs on a worker lane.\n"
                      "void laneHook(dyndist::Simulator &S) { ") +
              Call + " }\n"}});
    auto D5 = byRule(R, "D5");
    ASSERT_EQ(D5.size(), 1u) << Name << " lost its DYNDIST_SERIAL_ONLY";
    EXPECT_NE(D5[0].Message.find(std::string("'") + Name + "'"),
              std::string::npos)
        << D5[0].Message;
  }
}

//===----------------------------------------------------------------------===//
// Suppressions (S1) and markers (M1)
//===----------------------------------------------------------------------===//

TEST(LintSuppress, ReasonedAllowSuppressesButIsReported) {
  LintResult R = lintOne("src/x/A.h", R"lint(
    #include <unordered_map>
    struct S {
      // dyndist-lint: allow(D1) keyed access only; order never observed
      std::unordered_map<int, int> Lookup;
    };
  )lint");
  auto D1 = byRule(R, "D1");
  ASSERT_EQ(D1.size(), 1u);
  EXPECT_TRUE(D1[0].Suppressed);
  EXPECT_NE(D1[0].SuppressReason.find("keyed access"), std::string::npos);
  EXPECT_EQ(R.unsuppressedCount(), 0u);
}

TEST(LintSuppress, TrailingSameLineFormWorks) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    #include <cstdlib>
    // dyndist-lint: allow(D2) config entry point, read once at startup
    const char *home() { return std::getenv("HOME"); }
  )lint");
  // The suppression comment is on its own line above; also test the
  // trailing form on the same line as the code.
  LintResult R2 = lintOne("src/x/B.cpp",
                          "#include <cstdlib>\n"
                          "const char *home() { return std::getenv(\"X\"); } "
                          "// dyndist-lint: allow(D2) config entry point\n");
  EXPECT_EQ(R.unsuppressedCount(), 0u);
  EXPECT_EQ(R2.unsuppressedCount(), 0u);
  EXPECT_EQ(countRule(R2, "D2"), 1u);
  EXPECT_TRUE(byRule(R2, "D2")[0].Suppressed);
}

TEST(LintSuppress, MissingReasonIsRejected) {
  LintResult R = lintOne("src/x/A.h", R"lint(
    #include <unordered_map>
    struct S {
      // dyndist-lint: allow(D1)
      std::unordered_map<int, int> Lookup;
    };
  )lint");
  EXPECT_EQ(countRule(R, "S1"), 1u) << "a bare allow() must be rejected";
  // And the D1 finding must NOT be suppressed by the malformed directive.
  auto D1 = byRule(R, "D1");
  ASSERT_EQ(D1.size(), 1u);
  EXPECT_FALSE(D1[0].Suppressed);
  EXPECT_EQ(R.unsuppressedCount(), 2u);
}

TEST(LintSuppress, UnknownRuleIdIsRejected) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    // dyndist-lint: allow(D9) bogus rule id
    int f() { return 0; }
  )lint");
  EXPECT_EQ(countRule(R, "S1"), 1u);
}

TEST(LintSuppress, GrammarDiagnosticsCannotBeSuppressed) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    // dyndist-lint: allow(S1) trying to silence the grammar police
    int f() { return 0; }
  )lint");
  EXPECT_EQ(countRule(R, "S1"), 1u);
}

TEST(LintMarker, UnattachedMarkerIsFlagged) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    int f() { return 0; }
    // DYNDIST_SERIAL_ONLY: floating marker, nothing declared below.
  )lint");
  EXPECT_EQ(countRule(R, "M1"), 1u);
}

TEST(LintMarker, UnmatchedRegionIsFlagged) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    void f() {
      // DYNDIST_LANE_REGION_BEGIN: never closed.
      int X = 0;
      (void)X;
    }
  )lint");
  EXPECT_EQ(countRule(R, "M1"), 1u);
}

//===----------------------------------------------------------------------===//
// Rule subsetting, JSON report
//===----------------------------------------------------------------------===//

TEST(LintDriver, RuleSubsetFiltersFindings) {
  Linter L;
  L.setEnabledRules({"D4"});
  L.addSource("src/x/A.cpp", R"lint(
    #include <random>
    #include <unordered_map>
    struct S { std::unordered_map<int, int> M; };
    unsigned draw() { std::mt19937 G(7); return G(); }
  )lint");
  LintResult R = L.run();
  EXPECT_EQ(countRule(R, "D4"), 1u);
  EXPECT_EQ(countRule(R, "D1"), 0u) << "D1 disabled by the subset";
}

TEST(LintDriver, JsonReportShape) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    #include <random>
    unsigned draw() { std::mt19937 G(7); return G(); }
  )lint");
  std::string J = dyndist::analysis::toJson(R, "/repo");
  EXPECT_NE(J.find("\"tool\": \"dyndist-lint\""), std::string::npos);
  EXPECT_NE(J.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"rule\": \"D4\""), std::string::npos);
  EXPECT_NE(J.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(J.find("\"suppressed\": false"), std::string::npos);
  EXPECT_NE(J.find("\"by_rule\": {\"D4\": 1}"), std::string::npos);
  EXPECT_NE(J.find("\"fix_hint\""), std::string::npos);
}

TEST(LintDriver, DiagnosticFormatIsClickable) {
  LintResult R = lintOne("src/x/A.cpp", R"lint(
    #include <random>
    unsigned draw() { std::mt19937 G(7); return G(); }
  )lint");
  ASSERT_EQ(R.Findings.size(), 1u);
  std::string D = dyndist::analysis::formatDiagnostic(R.Findings[0]);
  EXPECT_EQ(D.rfind("src/x/A.cpp:3:", 0), 0u)
      << "diagnostic must lead with file:line:col, got: " << D;
  EXPECT_NE(D.find("[D4]"), std::string::npos);
  EXPECT_NE(D.find("hint:"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The real tree must lint clean
//===----------------------------------------------------------------------===//

namespace {
namespace fs = std::filesystem;

void addTree(Linter &L, const fs::path &Root, const char *TreeName,
             size_t &Count) {
  fs::path Dir = Root / TreeName;
  std::error_code EC;
  if (!fs::is_directory(Dir, EC))
    return;
  std::vector<fs::path> Files;
  for (fs::recursive_directory_iterator It(Dir, EC), End; It != End;
       It.increment(EC)) {
    if (EC)
      break;
    std::string Ext = It->path().extension().string();
    if (It->is_regular_file(EC) &&
        (Ext == ".h" || Ext == ".hpp" || Ext == ".cpp" || Ext == ".cc"))
      Files.push_back(It->path());
  }
  std::sort(Files.begin(), Files.end());
  for (const fs::path &P : Files) {
    std::ifstream In(P, std::ios::binary);
    ASSERT_TRUE(In) << "cannot read " << P;
    std::ostringstream SS;
    SS << In.rdbuf();
    L.addSource(fs::path(P).lexically_relative(Root).generic_string(),
                SS.str());
    ++Count;
  }
}
} // namespace

TEST(LintRealTree, ZeroUnsuppressedFindings) {
  Linter L;
  size_t Count = 0;
  fs::path Root = DYNDIST_LINT_SOURCE_ROOT;
  for (const char *Tree : {"src", "tools", "bench", "tests"})
    addTree(L, Root, Tree, Count);
  ASSERT_GT(Count, 100u) << "tree walk found suspiciously few files";
  LintResult R = L.run();
  std::string FirstBad;
  for (const Finding &F : R.Findings)
    if (!F.Suppressed && FirstBad.empty())
      FirstBad = dyndist::analysis::formatDiagnostic(F);
  EXPECT_EQ(R.unsuppressedCount(), 0u) << FirstBad;
  // The audited containers and config entry points are suppressed WITH
  // reasons; their findings must still be visible in the report.
  size_t Suppressed = 0;
  for (const Finding &F : R.Findings)
    if (F.Suppressed) {
      ++Suppressed;
      EXPECT_FALSE(F.SuppressReason.empty());
    }
  EXPECT_EQ(Suppressed, 4u)
      << "the audited allow() sites (Ids, KeyTable, 2x getenv) must stay "
         "visible";
}

//===- programs_test.cpp - File-driven verification of sample programs ------===//
//
// Every `.hbpl` under examples/programs declares its expected verdict in a
// header comment (`// expect: safe bound=2`). This test parses, round-trips
// and verifies each file with SI, DI (both on the default passified pVC),
// DI on the paper's literal pVC, and DI+Inv, and checks the expectation —
// the sample corpus doubles as an end-to-end regression suite.
//
// PrepassGolden pins the program the engine solves: for every sample file
// and two perfbench-shaped random programs, the default prepass's output
// (CfgProgram::str and PrepassReport::str) is compared byte for byte with
// tests/golden/prepass/<name>.txt. Regenerate with RMT_UPDATE_GOLDEN=1 after
// an intended change to a pass.
//
//===----------------------------------------------------------------------===//

#include "ast/AstPrinter.h"
#include "core/Verifier.h"
#include "parser/Parser.h"
#include "support/Rng.h"
#include "workload/RandomProg.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace rmt;

namespace {

struct Expectation {
  Verdict Outcome = Verdict::Unknown;
  unsigned Bound = 2;
};

std::optional<Expectation> parseExpectation(const std::string &Source) {
  size_t Pos = Source.find("// expect:");
  if (Pos == std::string::npos)
    return std::nullopt;
  std::istringstream Line(Source.substr(Pos + 10, 80));
  std::string VerdictWord;
  Line >> VerdictWord;
  Expectation E;
  if (VerdictWord == "safe")
    E.Outcome = Verdict::Safe;
  else if (VerdictWord == "bug")
    E.Outcome = Verdict::Bug;
  else
    return std::nullopt;
  std::string Rest;
  while (Line >> Rest)
    if (Rest.rfind("bound=", 0) == 0)
      E.Bound = static_cast<unsigned>(std::stoi(Rest.substr(6)));
  return E;
}

std::vector<std::filesystem::path> sampleFiles() {
  std::vector<std::filesystem::path> Files;
  std::filesystem::path Dir = RMT_SAMPLE_PROGRAMS_DIR;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".hbpl")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

class SampleProgram
    : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(SampleProgram, ParsesAndRoundTrips) {
  std::string Source = readFile(GetParam());
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(Source, Ctx, Diags);
  ASSERT_TRUE(P) << GetParam() << "\n" << Diags.str();

  std::string Printed = printProgram(Ctx, *P);
  AstContext Ctx2;
  DiagEngine Diags2;
  auto P2 = parseAndCheck(Printed, Ctx2, Diags2);
  ASSERT_TRUE(P2) << Diags2.str();
  EXPECT_EQ(printProgram(Ctx2, *P2), Printed);
}

TEST_P(SampleProgram, VerdictMatchesExpectation) {
  std::string Source = readFile(GetParam());
  std::optional<Expectation> Expect = parseExpectation(Source);
  ASSERT_TRUE(Expect) << GetParam()
                      << ": missing or malformed `// expect:` header";

  struct Config {
    const char *Name;
    MergeStrategyKind Kind;
    PvcMode Pvc = EngineOptions().Pvc;
    bool Inv = false;
  };
  for (Config C : {Config{"SI", MergeStrategyKind::None},
                   Config{"DI", MergeStrategyKind::First},
                   Config{"DI/paper-pVC", MergeStrategyKind::First,
                          PvcMode::Paper},
                   Config{"DI/+Inv", MergeStrategyKind::First,
                          EngineOptions().Pvc, true}}) {
    AstContext Ctx;
    DiagEngine Diags;
    auto P = parseAndCheck(Source, Ctx, Diags);
    ASSERT_TRUE(P) << Diags.str();
    VerifierOptions Opts;
    Opts.Bound = Expect->Bound;
    Opts.Engine.Strategy.Kind = C.Kind;
    Opts.Engine.Pvc = C.Pvc;
    Opts.Prepass.Invariants = C.Inv;
    Opts.Engine.TimeoutSeconds = 120;
    auto R = verifyProgram(Ctx, *P, Ctx.sym("main"), Opts);
    EXPECT_EQ(R.Result.Outcome, Expect->Outcome)
        << GetParam() << " with " << C.Name;
    if (Expect->Outcome == Verdict::Bug && C.Kind != MergeStrategyKind::None) {
      EXPECT_FALSE(R.TraceText.empty());
    }
  }
}

TEST_P(SampleProgram, PrepassPreservesVerdict) {
  std::string Source = readFile(GetParam());
  std::optional<Expectation> Expect = parseExpectation(Source);
  ASSERT_TRUE(Expect) << GetParam();

  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(Source, Ctx, Diags);
  ASSERT_TRUE(P) << Diags.str();

  // The structural passes alone: `inv` adds labels (the +Inv verdict is
  // checked above).
  VerifierOptions On;
  On.Bound = Expect->Bound;
  On.Prepass.Invariants = false;
  On.Engine.Strategy.Kind = MergeStrategyKind::First;
  On.Engine.TimeoutSeconds = 120;
  VerifierOptions Off = On;
  Off.UsePrepass = false;

  auto ROn = verifyProgram(Ctx, *P, Ctx.sym("main"), On);
  auto ROff = verifyProgram(Ctx, *P, Ctx.sym("main"), Off);
  EXPECT_EQ(ROn.Result.Outcome, Expect->Outcome) << GetParam();
  EXPECT_EQ(ROn.Result.Outcome, ROff.Result.Outcome)
      << GetParam() << ": prepass changed the verdict";
  EXPECT_LE(ROn.NumLabelsSolved, ROn.NumLabels);
}

INSTANTIATE_TEST_SUITE_P(
    Files, SampleProgram, ::testing::ValuesIn(sampleFiles()),
    [](const ::testing::TestParamInfo<std::filesystem::path> &Info) {
      std::string Name = Info.param.stem().string();
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// The prepass output, pinned
//===----------------------------------------------------------------------===//

namespace {

struct GoldenInput {
  std::string Name;
  std::string Source;
  unsigned Bound = 2;
};

void PrintTo(const GoldenInput &In, std::ostream *OS) { *OS << In.Name; }

std::vector<GoldenInput> goldenInputs() {
  std::vector<GoldenInput> Out;
  for (const std::filesystem::path &File : sampleFiles()) {
    std::string Source = readFile(File);
    std::optional<Expectation> Expect = parseExpectation(Source);
    Out.push_back({File.stem().string(), Source, Expect ? Expect->Bound : 2});
  }
  // perfbench's first two `loops` draws: 30 procedures, nesting 3, loops,
  // arrays and bitvectors, printed and re-parsed, bound 2.
  Rng R(0x100f);
  for (unsigned Draw = 0; Draw < 2; ++Draw) {
    RandomProgParams P;
    P.Seed = R.next();
    P.NumProcs = 30;
    P.MaxStmts = 10;
    P.MaxNesting = 3;
    P.AllowLoops = true;
    P.AllowArrays = true;
    P.AllowBitvectors = true;
    AstContext Ctx;
    Out.push_back({"loops_rand" + std::to_string(Draw),
                   printProgram(Ctx, makeRandomProgram(Ctx, P)), 2});
  }
  return Out;
}

} // namespace

class PrepassGolden : public ::testing::TestWithParam<GoldenInput> {};

TEST_P(PrepassGolden, OutputPinned) {
  const GoldenInput &In = GetParam();
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(In.Source, Ctx, Diags);
  ASSERT_TRUE(P) << Diags.str();
  VerifierOptions Opts;
  Opts.Bound = In.Bound;
  VerifierRunResult Front;
  LoweredInstance L = lowerInstance(Ctx, *P, Ctx.sym("main"), Opts, Front);
  ASSERT_TRUE(Front.Prepass.ok()) << Front.Prepass.str();
  std::string Got = L.Cfg.str(Ctx) + Front.Prepass.str() + "\n";

  std::filesystem::path Path = std::filesystem::path(RMT_GOLDEN_DIR) /
                               "prepass" / (In.Name + ".txt");
  if (std::getenv("RMT_UPDATE_GOLDEN")) {
    std::filesystem::create_directories(Path.parent_path());
    std::ofstream(Path) << Got;
    return;
  }
  std::string Expected = readFile(Path);
  ASSERT_FALSE(Expected.empty()) << "missing golden " << Path;
  if (Got == Expected)
    return;
  // Report the first differing line, not two whole programs.
  std::istringstream G(Got), E(Expected);
  std::string GLine, ELine;
  for (unsigned Line = 1;; ++Line) {
    bool MoreG = static_cast<bool>(std::getline(G, GLine));
    bool MoreE = static_cast<bool>(std::getline(E, ELine));
    if (!MoreG && !MoreE)
      break;
    if (!MoreG || !MoreE || GLine != ELine) {
      ADD_FAILURE() << Path << ":" << Line << " differs\n  expected: "
                    << (MoreE ? ELine : "<end of file>")
                    << "\n  got:      " << (MoreG ? GLine : "<end of file>");
      return;
    }
  }
  ADD_FAILURE() << Path << " differs";
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, PrepassGolden, ::testing::ValuesIn(goldenInputs()),
    [](const ::testing::TestParamInfo<GoldenInput> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

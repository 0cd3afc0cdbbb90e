//===- programs_test.cpp - File-driven verification of sample programs ------===//
//
// Every `.hbpl` under examples/programs declares its expected verdict in a
// header comment (`// expect: safe bound=2`). This test parses, round-trips
// and verifies each file with SI, DI (both on the default passified pVC),
// DI on the paper's literal pVC, and DI+Inv, and checks the expectation —
// the sample corpus doubles as an end-to-end regression suite.
//
//===----------------------------------------------------------------------===//

#include "ast/AstPrinter.h"
#include "core/Verifier.h"
#include "parser/Parser.h"

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

//===- telemetry_test.cpp - Trace/metrics subsystem tests -------------------===//
//
// Coverage for support/Trace.h: JSON string escaping (labels containing
// quotes, backslashes, newlines), balanced Begin/End span pairs under RAII
// nesting, ring-buffer overflow keeping the newest events, and a tiny JSON
// parser that validates the emitted Chrome-trace and stats documents —
// including the ones produced by a real end-to-end verifyProgram run.
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "core/Verifier.h"
#include "parser/Parser.h"
#include "smt/Z3Solver.h"
#include "support/Trace.h"
#include "workload/Chain.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

using namespace rmt;

namespace {

//===----------------------------------------------------------------------===//
// A tiny validating JSON parser (no values built — syntax check only)
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(std::string_view Text) : S(Text) {}

  bool valid() {
    skipWs();
    return value() && (skipWs(), Pos == S.size());
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}')
      return ++Pos, true;
    for (;;) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}')
        return ++Pos, true;
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']')
      return ++Pos, true;
    for (;;) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']')
        return ++Pos, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size()) {
      char C = S[Pos];
      if (C == '"')
        return ++Pos, true;
      if (static_cast<unsigned char>(C) < 0x20)
        return false; // raw control characters are invalid JSON
      if (C == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
        char E = S[Pos];
        if (E == 'u') {
          for (int I = 0; I < 4; ++I) {
            ++Pos;
            if (Pos >= S.size() || !std::isxdigit(
                                       static_cast<unsigned char>(S[Pos])))
              return false;
          }
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return false;
        }
      }
      ++Pos;
    }
    return false;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    if (!std::isdigit(static_cast<unsigned char>(peek())))
      return false;
    while (std::isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
    if (peek() == '.') {
      ++Pos;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    return Pos > Start;
  }

  bool literal(std::string_view L) {
    if (S.substr(Pos, L.size()) != L)
      return false;
    Pos += L.size();
    return true;
  }

  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }
  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  std::string_view S;
  size_t Pos = 0;
};

bool isValidJson(const std::string &Text) {
  return JsonChecker(Text).valid();
}

} // namespace

//===----------------------------------------------------------------------===//
// JSON escaping
//===----------------------------------------------------------------------===//

TEST(JsonEscape, QuotesBackslashesNewlines) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(jsonEscape("\r\b\f"), "\\r\\b\\f");
}

TEST(JsonEscape, ControlCharactersEscapedAsUnicode) {
  EXPECT_EQ(jsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  // Embedded NUL must not truncate the escaped output.
  EXPECT_EQ(jsonEscape(std::string_view("a\0b", 3)), "a\\u0000b");
}

TEST(JsonEscape, RoundTripsThroughTheChecker) {
  std::string Nasty = "\"quotes\" \\slashes\\ \nnewlines\n\x02 end";
  std::string Doc = "{\"k\":\"" + jsonEscape(Nasty) + "\"}";
  EXPECT_TRUE(isValidJson(Doc)) << Doc;
  // Unescaped, the same label breaks the document — the checker is not a rubber stamp.
  EXPECT_FALSE(isValidJson("{\"k\":\"" + Nasty + "\"}"));
}

//===----------------------------------------------------------------------===//
// Span recording
//===----------------------------------------------------------------------===//

TEST(Trace, BeginEndPairsBalanceAndNest) {
  Trace T(64);
  T.setEnabled(true);
  {
    TraceSpan Outer(&T, "outer", {{"k", 1}});
    T.instant("tick");
    {
      TraceSpan Inner(&T, "inner");
      Inner.note({"result", "ok"});
    }
  }
  ASSERT_EQ(T.numEvents(), 5u);
  EXPECT_EQ(T.openSpans(), 0u);

  // outer-B, tick-i, inner-B, inner-E, outer-E: LIFO nesting, name carried
  // onto the End events, note() args on the inner End.
  EXPECT_EQ(T.event(0).Ph, TraceEvent::Phase::Begin);
  EXPECT_EQ(T.event(0).Name, "outer");
  EXPECT_EQ(T.event(1).Ph, TraceEvent::Phase::Instant);
  EXPECT_EQ(T.event(2).Name, "inner");
  EXPECT_EQ(T.event(3).Ph, TraceEvent::Phase::End);
  EXPECT_EQ(T.event(3).Name, "inner");
  ASSERT_EQ(T.event(3).Args.size(), 1u);
  EXPECT_EQ(T.event(3).Args[0].Str, "ok");
  EXPECT_EQ(T.event(4).Ph, TraceEvent::Phase::End);
  EXPECT_EQ(T.event(4).Name, "outer");

  // Timestamps are monotone.
  for (size_t I = 1; I < T.numEvents(); ++I)
    EXPECT_GE(T.event(I).Micros, T.event(I - 1).Micros);

  // Aggregates saw one of each.
  ASSERT_EQ(T.spanAggregates().count("outer"), 1u);
  EXPECT_EQ(T.spanAggregates().at("outer").Count, 1u);
  EXPECT_GE(T.spanAggregates().at("outer").Seconds,
            T.spanAggregates().at("inner").Seconds);
}

TEST(Trace, DisabledAndNullAreNoOps) {
  Trace T(16);
  ASSERT_FALSE(T.enabled()); // disabled is the default
  {
    TraceSpan S(&T, "never");
    T.instant("never");
    T.begin("never");
    T.end();
  }
  EXPECT_EQ(T.numEvents(), 0u);
  EXPECT_TRUE(T.spanAggregates().empty());
  {
    TraceSpan S(nullptr, "null-trace"); // must not crash
    S.note({"k", 1});
  }
}

TEST(Trace, EndWithoutBeginIsIgnored) {
  Trace T(16);
  T.setEnabled(true);
  T.end();
  EXPECT_EQ(T.numEvents(), 0u);
}

//===----------------------------------------------------------------------===//
// Ring buffer overflow
//===----------------------------------------------------------------------===//

TEST(Trace, OverflowKeepsNewestEvents) {
  Trace T(8);
  T.setEnabled(true);
  for (int I = 0; I < 20; ++I)
    T.instant("e" + std::to_string(I));
  EXPECT_EQ(T.numEvents(), 8u);
  EXPECT_EQ(T.numDropped(), 12u);
  EXPECT_EQ(T.capacity(), 8u);
  for (size_t I = 0; I < 8; ++I)
    EXPECT_EQ(T.event(I).Name, "e" + std::to_string(12 + I));
}

TEST(Trace, AggregatesSurviveOverflow) {
  Trace T(4);
  T.setEnabled(true);
  for (int I = 0; I < 50; ++I)
    TraceSpan S(&T, "work");
  EXPECT_EQ(T.numEvents(), 4u);
  ASSERT_EQ(T.spanAggregates().count("work"), 1u);
  EXPECT_EQ(T.spanAggregates().at("work").Count, 50u);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(Trace, ChromeJsonIsValidWithHostileLabels) {
  Trace T(32);
  T.setEnabled(true);
  {
    TraceSpan S(&T, "label with \"quotes\" and \\slashes\\",
                {{"note", "multi\nline\tvalue"}});
    T.instant("newline\nlabel", {{"n", -3}, {"x", 1.5}});
  }
  std::string Json = T.chromeJson();
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("newline\\nlabel"), std::string::npos);
}

TEST(Trace, EmptyTraceExportsValidDocuments) {
  Trace T(4);
  EXPECT_TRUE(isValidJson(T.chromeJson()));
  EXPECT_TRUE(isValidJson(T.statsJson()));
}

TEST(Trace, StatsJsonBundlesStatsAndAggregates) {
  Trace T(32);
  T.setEnabled(true);
  { TraceSpan S(&T, "phase.a"); }
  { TraceSpan S(&T, "phase.a"); }
  { TraceSpan S(&T, "phase \"b\""); }

  Stats Bag;
  Bag.add("engine.inlined", 12);
  Bag.addTime("engine.seconds", 0.125);
  std::string Json = T.statsJson(&Bag);
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("\"engine.inlined\":12"), std::string::npos);
  EXPECT_NE(Json.find("\"phase.a\": {\"count\":2"), std::string::npos);
  EXPECT_NE(Json.find("phase \\\"b\\\""), std::string::npos);
  EXPECT_NE(Json.find("\"dropped\":0"), std::string::npos);
}

TEST(Trace, WritesParseableFiles) {
  Trace T(32);
  T.setEnabled(true);
  { TraceSpan S(&T, "io-span"); }
  Stats Bag;
  Bag.add("k", 1);

  std::string Dir = ::testing::TempDir();
  std::string TracePath = Dir + "/rmt_trace_test.json";
  std::string StatsPath = Dir + "/rmt_stats_test.json";
  ASSERT_TRUE(T.writeChromeJson(TracePath));
  ASSERT_TRUE(T.writeStatsJson(StatsPath, &Bag));

  auto Slurp = [](const std::string &Path) {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    return Buf.str();
  };
  std::string TraceDoc = Slurp(TracePath);
  std::string StatsDoc = Slurp(StatsPath);
  EXPECT_TRUE(isValidJson(TraceDoc)) << TraceDoc;
  EXPECT_TRUE(isValidJson(StatsDoc)) << StatsDoc;
  EXPECT_EQ(TraceDoc, T.chromeJson());
  std::remove(TracePath.c_str());
  std::remove(StatsPath.c_str());

  EXPECT_FALSE(T.writeChromeJson(Dir + "/no/such/dir/t.json"));
}

//===----------------------------------------------------------------------===//
// End-to-end: a real verification run on the trace
//===----------------------------------------------------------------------===//

namespace {

const char *PipelineSource = R"(
procedure helper(x: int) returns (y: int) {
  y := x + 1;
}

procedure main() {
  var a: int;
  var b: int;
  havoc a;
  call b := helper(a);
  call b := helper(b);
  assert b != a;
}
)";

} // namespace

TEST(TraceEndToEnd, VerifyProgramEmitsNestedPipelineSpans) {
  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> Prog = parseAndCheck(PipelineSource, Ctx, Diags);
  ASSERT_TRUE(Prog) << Diags.str();

  Trace T;
  T.setEnabled(true);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.Engine.TimeoutSeconds = 60;
  Opts.Telemetry = &T;
  VerifierRunResult R = verifyProgram(Ctx, *Prog, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);

  // Balanced spans, all closed.
  size_t Begins = 0, Ends = 0;
  bool SawEngineCheck = false, SawZ3 = false, SawPass = false,
       SawIteration = false, SawVerdict = false;
  int Depth = 0, Z3Depth = -1;
  for (size_t I = 0; I < T.numEvents(); ++I) {
    const TraceEvent &E = T.event(I);
    if (E.Ph == TraceEvent::Phase::Begin) {
      ++Begins;
      ++Depth;
      if (E.Name == "z3.check_sat") {
        SawZ3 = true;
        Z3Depth = Depth;
      }
      if (E.Name == "engine.under_check" || E.Name == "engine.over_check")
        SawEngineCheck = true;
      if (E.Name.rfind("pass.", 0) == 0)
        SawPass = true;
      if (E.Name == "engine.iteration")
        SawIteration = true;
    } else if (E.Ph == TraceEvent::Phase::End) {
      ++Ends;
      --Depth;
    } else if (E.Name == "engine.verdict") {
      SawVerdict = true;
    }
  }
  EXPECT_EQ(Begins, Ends);
  EXPECT_EQ(Depth, 0);
  EXPECT_EQ(T.openSpans(), 0u);
  EXPECT_TRUE(SawEngineCheck);
  EXPECT_TRUE(SawZ3);
  EXPECT_TRUE(SawPass);
  EXPECT_TRUE(SawIteration);
  EXPECT_TRUE(SawVerdict);
  // The solver span nests under iteration > check > z3 inside verify >
  // engine.run — at least four levels deep.
  EXPECT_GE(Z3Depth, 4);

  // Aggregates cover the hot layers, both exports validate.
  EXPECT_GE(T.spanAggregates().count("engine.under_check"), 1u);
  EXPECT_GE(T.spanAggregates().count("z3.check_sat"), 1u);
  EXPECT_TRUE(isValidJson(T.chromeJson()));

  Stats Bag;
  Bag.merge(R.PrepassStats);
  R.Result.record(Bag);
  EXPECT_TRUE(isValidJson(T.statsJson(&Bag)));

  // The new VerifyResult split is populated and consistent.
  EXPECT_EQ(R.Result.NumUnderChecks + R.Result.NumOverChecks,
            R.Result.NumSolverChecks);
  EXPECT_GE(R.Result.NumUnderChecks, 1u);
  EXPECT_GT(R.Result.SolverSeconds, 0.0);
  EXPECT_EQ(Bag.get("engine.verdict.safe"), 1);
}

TEST(TraceEndToEnd, ProofIsNamed) {
  // A Safe verdict names its proof on the verify span and in the stats:
  // "invariants" when +Inv proved the query before any engine work, else
  // the engine's own proof, which its verdict event names too.
  for (bool Inv : {true, false}) {
    SCOPED_TRACE(Inv ? "+Inv" : "-Inv");
    AstContext Ctx;
    Program P = makeChainProgram(Ctx, 8);
    Trace T;
    T.setEnabled(true);
    VerifierOptions Opts;
    Opts.Bound = 1;
    Opts.Prepass.Invariants = Inv;
    Opts.Telemetry = &T;
    VerifierRunResult R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
    ASSERT_EQ(R.Result.Outcome, Verdict::Safe);
    EXPECT_FALSE(R.Result.Proof.empty());
    EXPECT_EQ(R.Result.Proof == "invariants", Inv);

    std::string SpanProof, EngineProof;
    std::vector<const TraceEvent *> Open;
    for (size_t I = 0; I < T.numEvents(); ++I) {
      const TraceEvent &E = T.event(I);
      if (E.Ph == TraceEvent::Phase::Begin) {
        Open.push_back(&E);
      } else if (E.Ph == TraceEvent::Phase::End) {
        if (Open.back()->Name == "verify")
          for (const TraceArg &A : E.Args)
            if (A.Key == "proof")
              SpanProof = A.Str;
        Open.pop_back();
      } else if (E.Name == "engine.verdict") {
        for (const TraceArg &A : E.Args)
          if (A.Key == "proof")
            EngineProof = A.Str;
      }
    }
    EXPECT_EQ(SpanProof, R.Result.Proof);
    EXPECT_EQ(EngineProof, Inv ? "" : R.Result.Proof);

    Stats Bag;
    R.Result.record(Bag);
    EXPECT_EQ(Bag.get("engine.proof." + R.Result.Proof), 1);
    EXPECT_EQ(Bag.get("engine.proof.invariants"), Inv ? 1 : 0);
    EXPECT_NE(T.statsJson(&Bag).find("\"engine.proof." + R.Result.Proof +
                                     "\""),
              std::string::npos);
  }
}

namespace {

/// What a traced run says about its stratified frontier: the proof behind
/// its verdict, the core notes on its under-approximate checks, the
/// entered notes on its over-approximate ones, and the models it built.
struct FrontierExplanation {
  VerifierRunResult Run;
  Stats Bag;
  std::string Proof;
  size_t UnsatUnderChecks = 0;
  size_t CoreNotes = 0;
  int64_t CoreSum = 0;
  size_t SatOverChecks = 0;
  size_t EnteredNotes = 0;
  int64_t EnteredSum = 0;
  size_t Models = 0;
};

const TraceArg *findArg(const TraceEvent &E, std::string_view Key) {
  for (const TraceArg &A : E.Args)
    if (A.Key == Key)
      return &A;
  return nullptr;
}

FrontierExplanation explainRun(AstContext &Ctx, const Program &Prog,
                               VerifierOptions Opts) {
  Trace T;
  T.setEnabled(true);
  Opts.Bound = 1;
  Opts.Engine.TimeoutSeconds = 60;
  Opts.Telemetry = &T;
  FrontierExplanation Out;
  Out.Run = verifyProgram(Ctx, Prog, Ctx.sym("main"), Opts);
  Out.Run.Result.record(Out.Bag);
  std::vector<const TraceEvent *> Open;
  for (size_t I = 0; I < T.numEvents(); ++I) {
    const TraceEvent &E = T.event(I);
    if (E.Ph == TraceEvent::Phase::Begin) {
      Open.push_back(&E);
    } else if (E.Ph == TraceEvent::Phase::End) {
      if (Open.back()->Name == "engine.under_check") {
        const TraceArg *Result = findArg(E, "result");
        if (Result && Result->Str == "unsat")
          ++Out.UnsatUnderChecks;
        if (const TraceArg *Core = findArg(E, "core")) {
          ++Out.CoreNotes;
          Out.CoreSum += Core->Int;
        }
      } else if (Open.back()->Name == "engine.over_check") {
        const TraceArg *Result = findArg(E, "result");
        if (Result && Result->Str == "sat")
          ++Out.SatOverChecks;
        if (const TraceArg *Entered = findArg(E, "entered")) {
          ++Out.EnteredNotes;
          Out.EnteredSum += Entered->Int;
          EXPECT_LE(Entered->Int, findArg(*Open.back(), "open_edges")->Int);
        }
      } else if (Open.back()->Name == "z3.get_model") {
        ++Out.Models;
      }
      Open.pop_back();
    } else if (E.Name == "engine.verdict") {
      if (const TraceArg *Proof = findArg(E, "proof"))
        Out.Proof = Proof->Str;
    }
  }
  EXPECT_EQ(T.numDropped(), 0u);
  return Out;
}

FrontierExplanation explainSource(const char *Src, VerifierOptions Opts) {
  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> Prog = parseAndCheck(Src, Ctx, Diags);
  EXPECT_TRUE(Prog) << Diags.str();
  return explainRun(Ctx, *Prog, Opts);
}

} // namespace

TEST(TraceEndToEnd, FrontierExplainsItself) {
  // Both branches call out: the first core must name both blocked calls,
  // and the over-approximate assignment enters only one, so the other is
  // inlined on the core's word alone. Then nothing is open. (-Inv: the
  // call-site summaries would pin g == 0 and end the run at the root.)
  VerifierOptions NoInv;
  NoInv.Prepass.Invariants = false;
  FrontierExplanation Branches = explainSource(R"(
    var g: int;
    procedure f() { g := 0; }
    procedure h() { g := 0; }
    procedure main() {
      var c: bool;
      havoc c;
      if (c) { call f(); } else { call h(); }
      assert g == 0;
    }
  )",
                                               NoInv);
  EXPECT_EQ(Branches.Run.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(Branches.Proof, "fully_inlined");
  EXPECT_EQ(Branches.Bag.get("engine.core_edges"), 2);
  EXPECT_EQ(Branches.Bag.get("engine.frontier.core_only"), 1);

  // The root alone is unsat: the core is empty and no over check runs.
  VerifierOptions NoPrepass;
  NoPrepass.UsePrepass = false;
  FrontierExplanation Dead = explainSource(R"(
    var g: int;
    procedure f() { g := g + 1; assert g != 3; }
    procedure main() { assume false; call f(); }
  )",
                                           NoPrepass);
  EXPECT_EQ(Dead.Run.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(Dead.Proof, "empty_core");
  EXPECT_EQ(Dead.Bag.get("engine.core_edges"), 0);
  EXPECT_EQ(Dead.Bag.get("engine.over_checks"), 0);

  // Under +Inv, where the intervals leave the root open, the call-site
  // summaries make the over-approximate check unsat with main alone
  // inlined: SI's early stop.
  VerifierOptions Inv;
  Inv.Engine.Strategy.Kind = MergeStrategyKind::First;
  FrontierExplanation Summary = explainSource(SummaryOnlySrc, Inv);
  EXPECT_EQ(Summary.Run.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(Summary.Proof, "over_unsat");
  EXPECT_EQ(Summary.Run.Result.NumInlined, 1u);

  // Every unsat under-approximate check notes its core size, and the notes
  // add up to engine.core_edges.
  for (const FrontierExplanation *E : {&Branches, &Dead, &Summary}) {
    EXPECT_GE(E->UnsatUnderChecks, 1u);
    EXPECT_EQ(E->CoreNotes, E->UnsatUnderChecks);
    EXPECT_EQ(E->CoreSum, E->Bag.get("engine.core_edges"));
  }
}

TEST(TraceEndToEnd, FrontierIsReadWithoutAModel) {
  // Every Sat over-approximate check notes how many open edges its
  // assignment enters. Each frontier edge is entered or named by a core,
  // and every inlined instance but the root, and every merge, resolves one
  // frontier edge. No model is built on the way: a Safe run builds none,
  // and a Bug run builds one, for its trace. (-Inv: +Inv decides the safe
  // chain with no Sat over-approximate check.)
  VerifierOptions NoInv;
  NoInv.Prepass.Invariants = false;
  for (bool Buggy : {false, true}) {
    AstContext Ctx;
    FrontierExplanation Chain =
        explainRun(Ctx, makeChainProgram(Ctx, 8, Buggy), NoInv);
    SCOPED_TRACE(Buggy ? "buggy" : "safe");
    EXPECT_EQ(Chain.Run.Result.Outcome, Buggy ? Verdict::Bug : Verdict::Safe);
    EXPECT_GE(Chain.SatOverChecks, 1u);
    EXPECT_EQ(Chain.EnteredNotes, Chain.SatOverChecks);
    EXPECT_EQ(Chain.EnteredSum + Chain.Bag.get("engine.frontier.core_only"),
              Chain.Bag.get("engine.inlined") - 1 +
                  Chain.Bag.get("engine.merged"));
    EXPECT_EQ(Chain.Models, Buggy ? 1u : 0u);
    EXPECT_EQ(Chain.Run.Result.Trace.empty(), !Buggy);
  }
}

TEST(TraceEndToEnd, SolverSpansNoteTheirOwnSearch) {
  // Every z3.check_sat span notes its deadline and the conflicts and
  // decisions of its own check. Z3's counters add up over a solver's
  // checks, so an easy check after a hard one must not report the hard
  // one's conflicts.
  AstContext Ctx;
  TermArena A;
  Trace T;
  T.setEnabled(true);
  auto S = createZ3Solver(A, &T);
  TermRef Hard = assumptionLiteral(*S, A, Ctx, pigeonhole(A, Ctx, 6, 5));
  ASSERT_EQ(S->check({Hard}, 10), SolveResult::Unsat);
  ASSERT_EQ(S->check({A.mkNot(Hard)}, 0), SolveResult::Sat);
  std::vector<const TraceEvent *> Ends;
  for (size_t I = 0; I < T.numEvents(); ++I)
    if (T.event(I).Ph == TraceEvent::Phase::End &&
        T.event(I).Name == "z3.check_sat")
      Ends.push_back(&T.event(I));
  ASSERT_EQ(Ends.size(), 2u);
  for (const TraceEvent *E : Ends)
    for (const char *Key : {"timeout_ms", "conflicts", "decisions"})
      ASSERT_NE(findArg(*E, Key), nullptr) << Key;
  EXPECT_EQ(findArg(*Ends[0], "timeout_ms")->Int, 10000);
  EXPECT_EQ(findArg(*Ends[1], "timeout_ms")->Int,
            int64_t(std::numeric_limits<unsigned>::max()));
  int64_t HardConflicts = findArg(*Ends[0], "conflicts")->Int;
  EXPECT_GT(HardConflicts, 0);
  EXPECT_LT(findArg(*Ends[1], "conflicts")->Int, HardConflicts);
  EXPECT_GT(findArg(*Ends[1], "decisions")->Int, 0);
}

TEST(TraceEndToEnd, Z3ContextHasItsOwnSpans) {
  // A verdict that reaches the engine creates one Z3 context before
  // engine.run and deletes it after, each under its own span.
  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> Prog = parseAndCheck(PipelineSource, Ctx, Diags);
  ASSERT_TRUE(Prog) << Diags.str();
  Trace T;
  T.setEnabled(true);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.Engine.TimeoutSeconds = 60;
  Opts.Telemetry = &T;
  VerifierRunResult R = verifyProgram(Ctx, *Prog, Ctx.sym("main"), Opts);
  ASSERT_GE(R.Result.NumSolverChecks, 1u);
  std::vector<std::string> Order;
  for (size_t I = 0; I < T.numEvents(); ++I) {
    const TraceEvent &E = T.event(I);
    if (E.Ph == TraceEvent::Phase::Begin &&
        (E.Name == "z3.context_new" || E.Name == "engine.run" ||
         E.Name == "z3.context_delete"))
      Order.push_back(E.Name);
  }
  EXPECT_EQ(Order, (std::vector<std::string>{"z3.context_new", "engine.run",
                                             "z3.context_delete"}));
  EXPECT_EQ(T.openSpans(), 0u);
}

TEST(TraceEndToEnd, DisabledTraceRecordsNothingOnRealRun) {
  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> Prog = parseAndCheck(PipelineSource, Ctx, Diags);
  ASSERT_TRUE(Prog) << Diags.str();

  Trace T; // never enabled
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.Engine.TimeoutSeconds = 60;
  Opts.Telemetry = &T;
  VerifierRunResult R = verifyProgram(Ctx, *Prog, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(T.numEvents(), 0u);
  // The per-check stat split still works without telemetry.
  EXPECT_EQ(R.Result.NumUnderChecks + R.Result.NumOverChecks,
            R.Result.NumSolverChecks);
}

TEST(TraceEndToEnd, BoundSpanCountsReachedProcedures) {
  // The verify.bound span notes the declared procedures and those the entry
  // reaches; the run result carries the difference, which hbpl_verify
  // --stats prints as verify.procs_unreached.
  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> Prog = parseAndCheck(R"(
    procedure leaf() { }
    procedure unused() { call leaf(); assert false; }
    procedure main() { call leaf(); }
  )",
                                              Ctx, Diags);
  ASSERT_TRUE(Prog) << Diags.str();
  struct Case {
    const char *Entry;
    int64_t Reached;
  };
  for (auto [Entry, Reached] : {Case{"main", 2}, Case{"unused", 2},
                                Case{"leaf", 1}}) {
    SCOPED_TRACE(Entry);
    Trace T;
    T.setEnabled(true);
    VerifierOptions Opts;
    Opts.Telemetry = &T;
    VerifierRunResult R = verifyProgram(Ctx, *Prog, Ctx.sym(Entry), Opts);
    EXPECT_EQ(R.NumProcsUnreached, static_cast<size_t>(3 - Reached));
    EXPECT_EQ(R.NumProcs, static_cast<size_t>(Reached));

    const TraceArg *Procs = nullptr, *ProcsReached = nullptr;
    std::vector<const TraceEvent *> Open;
    for (size_t I = 0; I < T.numEvents(); ++I) {
      const TraceEvent &E = T.event(I);
      if (E.Ph == TraceEvent::Phase::Begin) {
        Open.push_back(&E);
      } else if (E.Ph == TraceEvent::Phase::End) {
        if (Open.back()->Name == "verify.bound") {
          Procs = findArg(E, "procs");
          ProcsReached = findArg(E, "procs_reached");
        }
        Open.pop_back();
      }
    }
    ASSERT_TRUE(Procs && ProcsReached);
    EXPECT_EQ(Procs->Int, 3);
    EXPECT_EQ(ProcsReached->Int, Reached);
  }
}

//===- BenchCommon.cpp ------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Timer.h"
#include "support/Trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

using namespace rmt;
using namespace rmt::bench;

EngineConfig rmt::bench::makeConfig(std::string Name, MergeStrategyKind Kind,
                                    bool Inv) {
  EngineConfig C{std::move(Name), VerifierOptions()};
  C.Opts.Bound = 1; // drivers and chains are loop-free by construction
  C.Opts.Prepass.Invariants = Inv;
  C.Opts.Engine.Strategy.Kind = Kind;
  return C;
}

std::string RunRow::timeCell(int Digits) const {
  if (!decided())
    return "T/O";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, Seconds);
  return Buf;
}

RunRow rmt::bench::runInstance(const std::string &Name,
                               const ProgramMaker &Make,
                               const EngineConfig &Config,
                               double TimeoutSeconds) {
  AstContext Ctx;
  Program Prog = Make(Ctx);
  VerifierOptions Opts = Config.Opts;
  Opts.Engine.TimeoutSeconds = TimeoutSeconds;

  Stopwatch Wall;
  VerifierRunResult R = verifyProgram(Ctx, Prog, Ctx.sym("main"), Opts);
  double Seconds = Wall.seconds();
  if (!R.Prepass.ok()) {
    std::fprintf(stderr, "error: %s [%s]: prepass failed: %s\n",
                 Name.c_str(), Config.Name.c_str(),
                 R.Prepass.PipelineErrors.front().c_str());
    std::exit(1);
  }

  RunRow Row;
  Row.Instance = Name;
  Row.Config = Config.Name;
  Row.Outcome = R.Result.Outcome;
  Row.Seconds = Seconds;
  Row.Inlined = R.Result.NumInlined;
  Row.Merged = R.Result.NumMerged;
  Row.MergeLookupSeconds = R.Result.MergeLookupSeconds;
  return Row;
}

unsigned rmt::bench::countDisagreements(const std::vector<RunRow> &Rows) {
  std::map<std::string, Verdict> Agreed;
  unsigned Disagreements = 0;
  for (const RunRow &Row : Rows) {
    if (!Row.decided())
      continue;
    auto [It, First] = Agreed.emplace(Row.Instance, Row.Outcome);
    if (!First && It->second != Row.Outcome)
      ++Disagreements;
  }
  return Disagreements;
}

std::vector<RunRow>
rmt::bench::runCorpus(const std::vector<SdvInstance> &Corpus,
                      const std::vector<EngineConfig> &Configs,
                      double TimeoutSeconds) {
  std::vector<RunRow> Rows;
  Rows.reserve(Corpus.size() * Configs.size());
  for (const SdvInstance &Inst : Corpus) {
    for (const EngineConfig &Config : Configs) {
      RunRow Row = runInstance(Inst.Name, sdvMaker(Inst.Params), Config,
                               TimeoutSeconds);
      std::fprintf(stderr, "  [%s] %-12s %-8s %7.2fs inlined=%zu\n",
                   Config.Name.c_str(), Inst.Name.c_str(),
                   verdictName(Row.Outcome), Row.Seconds, Row.Inlined);
      Rows.push_back(std::move(Row));
    }
  }
  return Rows;
}

std::vector<EngineConfig> rmt::bench::standardConfigs() {
  return {
      makeConfig("SI-Inv", MergeStrategyKind::None),
      makeConfig("DI-Inv", MergeStrategyKind::First),
      makeConfig("SI+Inv", MergeStrategyKind::None, true),
      makeConfig("DI+Inv", MergeStrategyKind::First, true),
  };
}

double rmt::bench::envTimeout(double Default) {
  if (const char *V = std::getenv("RMT_BENCH_TIMEOUT"))
    return std::atof(V);
  return Default;
}

unsigned rmt::bench::envCount(unsigned Default) {
  if (const char *V = std::getenv("RMT_BENCH_COUNT"))
    return static_cast<unsigned>(std::atoi(V));
  return Default;
}

namespace {

/// A JSON value for one cell: numeric-looking cells go out unquoted so
/// downstream tooling gets numbers, everything else as an escaped string.
std::string cellJson(const std::string &Cell) {
  if (!Cell.empty()) {
    char *End = nullptr;
    double V = std::strtod(Cell.c_str(), &End);
    if (End && *End == '\0' && End != Cell.c_str() && std::isfinite(V))
      return Cell;
  }
  return "\"" + jsonEscape(Cell) + "\"";
}

} // namespace

std::string rmt::bench::tableJson(
    const std::string &BenchName, const Table &T,
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  std::string Out = "{\n\"bench\": \"" + jsonEscape(BenchName) + "\",\n";
  Out += "\"meta\": {";
  for (size_t I = 0; I < Meta.size(); ++I) {
    if (I)
      Out += ",";
    Out += "\"" + jsonEscape(Meta[I].first) + "\":" + cellJson(Meta[I].second);
  }
  Out += "},\n\"rows\": [";
  const std::vector<std::string> &Header = T.header();
  for (size_t R = 0; R < T.rows().size(); ++R) {
    const std::vector<std::string> &Row = T.rows()[R];
    Out += R ? ",\n{" : "\n{";
    for (size_t C = 0; C < Row.size() && C < Header.size(); ++C) {
      if (C)
        Out += ",";
      Out += "\"" + jsonEscape(Header[C]) + "\":" + cellJson(Row[C]);
    }
    Out += "}";
  }
  Out += "\n]\n}\n";
  return Out;
}

bool rmt::bench::writeBenchJson(
    const std::string &BenchName, const Table &T,
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  std::string Dir = ".";
  if (const char *V = std::getenv("RMT_BENCH_JSON_DIR"))
    Dir = V;
  std::string Path = Dir + "/BENCH_" + BenchName + ".json";
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (Out)
    Out << tableJson(BenchName, T, Meta);
  if (!Out.flush()) {
    std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", Path.c_str());
  return true;
}

//===- BenchCommon.h - Shared benchmark harness ------------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the figure/table reproduction benches: one runner
/// that verifies and times one instance under one engine configuration
/// (runInstance), the SDV-like corpus loop over it, and
/// environment knobs so a full `for b in build/bench/*; do $b; done` sweep
/// stays tractable:
///
///   RMT_BENCH_TIMEOUT  — per-instance timeout seconds (default per bench)
///   RMT_BENCH_COUNT    — corpus size (default per bench)
///   RMT_BENCH_JSON_DIR — directory for BENCH_*.json result files (default .)
///
/// RunRow::Seconds is the wall time of the whole pipeline (bound, lower,
/// prepass, engine), so an ablation charges the prepass its own cost. The
/// Fig. 12/13/15 and merge-overhead times therefore include the front end,
/// which is under 5% of the time on SDV drivers. A run whose prepass
/// pipeline fails exits the bench with status 1, so no bench times an
/// unreduced program.
///
/// Benches that feed the perf trajectory write their result table as
/// `BENCH_<name>.json` via writeBenchJson(), so runs are machine-readable
/// and diffable across commits.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_BENCH_BENCHCOMMON_H
#define RMT_BENCH_BENCHCOMMON_H

#include "core/Verifier.h"
#include "support/Table.h"
#include "workload/SdvGen.h"

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace rmt {
namespace bench {

/// One engine configuration under comparison (a column of Fig. 12).
struct EngineConfig {
  std::string Name; // e.g. "SI-Inv", "DI+Inv"
  VerifierOptions Opts;
};

/// A bound-1 configuration with strategy \p Kind, +Inv when \p Inv and
/// -Inv otherwise; callers adjust the other options in place.
EngineConfig makeConfig(std::string Name, MergeStrategyKind Kind,
                        bool Inv = false);

/// Result of one instance under one configuration.
struct RunRow {
  std::string Instance;
  std::string Config;
  Verdict Outcome = Verdict::Unknown;
  /// Wall time of the whole verification, front end included.
  double Seconds = 0;
  size_t Inlined = 0;
  size_t Merged = 0;
  double MergeLookupSeconds = 0;

  /// The run answered Safe or Bug.
  bool decided() const {
    return Outcome == Verdict::Safe || Outcome == Verdict::Bug;
  }
  /// Seconds with \p Digits decimals, or "T/O" when undecided.
  std::string timeCell(int Digits) const;
};

/// Builds the program of one instance in the given context.
using ProgramMaker = std::function<Program(AstContext &)>;

/// Verifies the program \p Make builds, from `main`, under \p Config with
/// a \p TimeoutSeconds engine budget. Exits with status 1 on a prepass
/// pipeline error.
RunRow runInstance(const std::string &Name, const ProgramMaker &Make,
                   const EngineConfig &Config, double TimeoutSeconds);

/// Decided rows whose verdict differs from the first decided row of the
/// same instance (the paper: "whenever any of the two techniques returned
/// an answer, it was the same answer").
unsigned countDisagreements(const std::vector<RunRow> &Rows);

/// The maker of an SDV-like driver.
inline ProgramMaker sdvMaker(const SdvParams &Params) {
  return [Params](AstContext &Ctx) { return makeSdvProgram(Ctx, Params); };
}

/// Runs every configuration over every corpus instance.
std::vector<RunRow> runCorpus(const std::vector<SdvInstance> &Corpus,
                              const std::vector<EngineConfig> &Configs,
                              double TimeoutSeconds);

/// The four Fig. 12 configurations.
std::vector<EngineConfig> standardConfigs();

/// Environment overrides with defaults.
double envTimeout(double Default);
unsigned envCount(unsigned Default);

/// Renders \p T as a JSON document
///   {"bench": <name>, "meta": {...}, "rows": [{col: value, ...}, ...]}
/// with cells that parse fully as numbers emitted unquoted.
std::string
tableJson(const std::string &BenchName, const Table &T,
          const std::vector<std::pair<std::string, std::string>> &Meta = {});

/// Writes tableJson() to `BENCH_<name>.json` under RMT_BENCH_JSON_DIR
/// (default: the working directory). Logs the path; false on I/O failure.
bool writeBenchJson(
    const std::string &BenchName, const Table &T,
    const std::vector<std::pair<std::string, std::string>> &Meta = {});

} // namespace bench
} // namespace rmt

#endif // RMT_BENCH_BENCHCOMMON_H

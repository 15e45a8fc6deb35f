// The Delirium compiler driver: lex → parse → macro expansion →
// environment analysis → optimization → graph conversion. Each pass is
// timed individually, which is how Table 1 of the paper reports the
// compiler's own cost.
#pragma once

#include <string>
#include <vector>

#include "src/analysis/facts.h"
#include "src/analysis/graph_verify.h"
#include "src/analysis/sole_consumer.h"
#include "src/graph/graph_opt.h"
#include "src/graph/template.h"
#include "src/lang/ast.h"
#include "src/opt/optimizer.h"
#include "src/sema/env_analysis.h"
#include "src/sema/operator_table.h"

namespace delirium {

struct CompileOptions {
  bool optimize = true;
  /// Run the graph-level cleanup after conversion (only meaningful when
  /// `optimize` is set; bench_graph_opt ablates it).
  bool graph_opt = true;
  /// Run the sole-consumer analysis and annotate kUnique destructive
  /// edges for the runtime fast path. Independent of `optimize`.
  bool analyze_unique = true;
  /// Force the structural graph verifier. Debug builds always run it;
  /// release builds only when this is set (delc --verify-graphs).
  bool verify = false;
  OptimizeOptions opt;
  AnalysisOptions sema;
};

/// Wall-clock milliseconds per pass, in the paper's Table 1 order.
struct PassTimings {
  double lex_ms = 0;
  double parse_ms = 0;
  double macro_ms = 0;
  double env_ms = 0;
  double opt_ms = 0;
  double graph_ms = 0;
  double analysis_ms = 0;  // verifier + sched hints + sole-consumer analysis

  double total_ms() const {
    return lex_ms + parse_ms + macro_ms + env_ms + opt_ms + graph_ms + analysis_ms;
  }
};

struct CompileResult {
  bool ok = false;
  CompiledProgram program;       // valid when ok
  PassTimings timings;
  OptStats opt_stats;
  GraphOptStats graph_opt_stats;
  AnalysisResult analysis;
  std::string diagnostics;       // rendered diagnostics (errors/warnings)
  size_t ast_nodes = 0;          // after macro expansion + optimization
  /// Sole-consumer verdicts (populated when options.analyze_unique).
  /// Lint findings are kept out of `diagnostics`: a kShared warning is
  /// advice, not a compile problem. delc --lint renders them.
  SoleConsumerStats sole_consumer;
  std::vector<LintFinding> lint;
  /// Structural defects from the graph verifier (debug builds and
  /// options.verify). Non-empty means a graph-construction bug.
  std::vector<VerifyIssue> verify_issues;
  /// The facts table computed over the final graphs (src/analysis/
  /// facts.h), valid when `has_facts`. Computed exactly once per
  /// compile and shared by every downstream consumer: the optimizer's
  /// rewrites, the verifier's strandedness diagnostics, the sole-
  /// consumer upgrade, the executors' priority hints, and
  /// `delc --analyze`. Absent when DELIRIUM_GRAPH_FACTS=0.
  GraphFacts facts;
  bool has_facts = false;
  /// Nodes marked on_critical_path by apply_sched_hints (0 when facts
  /// or DELIRIUM_SCHED_HINTS are off).
  size_t sched_hint_nodes = 0;
};

/// Compile Delirium source text against an operator table. The returned
/// program references nothing from the source buffer; it can outlive it.
CompileResult compile_source(const std::string& file_name, const std::string& text,
                             const OperatorTable& operators, const CompileOptions& options = {});

/// Convenience for tests/examples: throws std::runtime_error with the
/// diagnostics on failure.
CompiledProgram compile_or_throw(const std::string& text, const OperatorTable& operators,
                                 const CompileOptions& options = {});

}  // namespace delirium

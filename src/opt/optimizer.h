// The optimizing passes of the Delirium compiler (§6.1 of the paper):
// constant propagation/folding, common sub-expression elimination,
// dead-code elimination, and inline function expansion.
//
// All passes are semantics-preserving tree rewrites. Because the language
// is deterministic and operators declare purity, the legality conditions
// are simple: only pure expressions are folded, shared, or deleted.
#pragma once

#include <cstdint>
#include <string>

#include "src/lang/ast.h"
#include "src/sema/env_analysis.h"
#include "src/sema/operator_table.h"

namespace delirium {

struct OptimizeOptions {
  bool constant_fold = true;
  bool cse = true;
  bool dce = true;
  bool inline_expansion = true;
  /// Remove functions unreachable from the entry point. The parallel
  /// compiler case study disables this per group: reachability through
  /// signature-only stubs is invisible.
  bool dce_functions = true;
  /// Functions whose body weight (node count) is at most this are
  /// candidates for inlining.
  uint32_t inline_max_weight = 24;
  /// Maximum nesting of inline expansions.
  int inline_max_depth = 4;
  /// Re-run the pipeline until it reaches a fixed point, at most this
  /// many rounds.
  int max_rounds = 4;
};

struct OptStats {
  int constants_folded = 0;
  int branches_resolved = 0;
  int cse_replacements = 0;
  int dead_bindings_removed = 0;
  int dead_functions_removed = 0;
  int calls_inlined = 0;
  int rounds = 0;

  int total() const {
    return constants_folded + branches_resolved + cse_replacements + dead_bindings_removed +
           dead_functions_removed + calls_inlined;
  }
};

/// Optimize `program` in place. `analysis` supplies recursion facts used
/// to gate inlining. Entry point(s) are roots for dead-function removal.
OptStats optimize_program(Program& program, AstContext& ctx, const OperatorTable& operators,
                          const AnalysisResult& analysis, const OptimizeOptions& options = {},
                          const std::string& entry_point = "main");

/// Individual passes, exposed for targeted tests. Each returns the number
/// of rewrites applied.
int pass_constant_fold(Program& program, AstContext& ctx, const OperatorTable& operators,
                       OptStats& stats);
int pass_cse(Program& program, const OperatorTable& operators, OptStats& stats);
int pass_dce(Program& program, const OperatorTable& operators, const std::string& entry_point,
             OptStats& stats, bool remove_functions = true);
int pass_inline(Program& program, AstContext& ctx, const AnalysisResult& analysis,
                const OptimizeOptions& options, OptStats& stats);

/// True when evaluating `e` cannot have effects: literals, variables, and
/// pure-operator applications over pure arguments. Conservative for
/// global function calls, let/if/iterate.
bool is_pure_expr(const Expr* e, const OperatorTable& operators);

/// Convert between compile-time constants and literal nodes.
bool expr_to_const(const Expr* e, ConstValue& out);
Expr* const_to_expr(const ConstValue& v, AstContext& ctx, SourceRange range);

}  // namespace delirium

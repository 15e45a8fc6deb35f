#include "perfbench/src/traced.h"

#include <stdexcept>

#include "src/analysis/facts.h"
#include "src/analysis/sole_consumer.h"
#include "src/core/compiler.h"
#include "src/graph/graph_builder.h"
#include "src/lang/lexer.h"
#include "src/lang/macro.h"
#include "src/lang/parser.h"
#include "src/sema/env_analysis.h"
#include "src/support/diagnostics.h"
#include "src/support/source.h"

namespace perfbench {

using namespace delirium;

uint32_t SpanRecorder::begin(std::string name, uint32_t parent, uint32_t request) {
  Span s;
  s.name = std::move(name);
  s.id = static_cast<uint32_t>(spans_.size()) + 1;
  s.parent = parent;
  s.request = request;
  s.start_ns = now_ticks() - origin_;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

double SpanRecorder::end(uint32_t id) {
  Span& s = spans_[id - 1];
  s.end_ns = now_ticks() - origin_;
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

uint64_t OpBodyTimers::total_ns() const {
  uint64_t total = 0;
  for (size_t i = 0; i < slots_.size(); ++i) total += ns(i);
  return total;
}

void copy_registry_with_timers(const OperatorRegistry& source, OperatorRegistry& target,
                               OpBodyTimers& timers) {
  for (size_t i = 0; i < source.size(); ++i) {
    const OperatorDef& def = source.at(i);
    const OperatorInfo& info = def.info;
    OperatorRegistry::Entry entry = target.add(
        info.name, info.arity, [inner = def.fn, t = &timers](OpContext& ctx) -> Value {
          const Ticks t0 = now_ticks();
          Value v = inner(ctx);
          t->add(ctx.worker_id(), now_ticks() - t0);
          return v;
        });
    if (info.pure) entry.pure();
    if (info.fold) entry.fold(info.fold);
    for (size_t arg = 0; arg < info.destructive.size(); ++arg) {
      if (info.destructive[arg]) entry.destructive(arg);
    }
    if (info.variadic) entry.variadic();

    const OperatorInfo& copy = target.at(i).info;
    if (copy.name != info.name || copy.arity != info.arity || copy.variadic != info.variadic ||
        copy.pure != info.pure || static_cast<bool>(copy.fold) != static_cast<bool>(info.fold) ||
        copy.destructive != info.destructive ||
        target.index_of(info.name) != source.index_of(info.name)) {
      throw std::logic_error("wrapped operator '" + info.name + "' differs from the original");
    }
  }
  target.set_fault_plan(source.fault_plan());
}

TracedCompile traced_compile(const std::string& file_name, const std::string& text,
                             const OperatorTable& operators, SpanRecorder& spans,
                             uint32_t parent, uint32_t request) {
  TracedCompile out;
  DiagnosticEngine diags;
  AstContext ctx;
  const CompileOptions defaults;  // what compile_source is measured with
  PassRows& rows = out.rows;

  uint32_t id = spans.begin("lang.lex", parent, request);
  SourceFile file(file_name, text);
  std::vector<Token> tokens = Lexer(file, diags).lex_all();
  rows.lex_ms = spans.end(id);
  out.tokens = tokens.size();

  id = spans.begin("lang.parse", parent, request);
  Parser parser(std::move(tokens), ctx, diags);
  Program program = parser.parse_program();
  rows.parse_ms = spans.end(id);

  id = spans.begin("lang.macro", parent, request);
  expand_macros(program, ctx, diags);
  rows.macro_ms = spans.end(id);

  id = spans.begin("sema.env", parent, request);
  AnalysisResult analysis = analyze_environment(program, operators, diags, defaults.sema);
  rows.env_ms = spans.end(id);
  if (diags.has_errors()) {
    out.diagnostics = diags.summary(file);
    return out;
  }

  id = spans.begin("opt.ast_opt", parent, request);
  out.opt_stats = optimize_program(program, ctx, operators, analysis, defaults.opt,
                                   defaults.sema.entry_point);
  rows.ast_opt_ms = spans.end(id);
  for (const FuncDecl* f : program.functions) out.ast_nodes += subtree_weight(f->body);

  id = spans.begin("graph.build", parent, request);
  out.program = build_graphs(program, analysis, operators, diags, defaults.sema.entry_point);
  rows.graph_build_ms = spans.end(id);
  out.nodes_built = out.program.total_nodes();
  out.templates_built = out.program.templates.size();
  if (diags.has_errors()) {
    out.diagnostics = diags.summary(file);
    return out;
  }

  id = spans.begin("analysis.graph_opt", parent, request);
  GraphFacts facts;
  out.graph_opt_stats = optimize_graphs(out.program, operators, GraphOptOptions{}, &facts);
  const bool has_facts = graph_facts_enabled();
  rows.graph_opt_ms = spans.end(id);

  id = spans.begin("analysis.sched_hints", parent, request);
  if (has_facts) apply_sched_hints(out.program, facts);
  rows.sched_hints_ms = spans.end(id);

  id = spans.begin("analysis.sole_consumer", parent, request);
  std::vector<LintFinding> lint;
  const GraphFacts* sole_facts =
      (has_facts && FactsOptions::from_env().fresh_returns) ? &facts : nullptr;
  analyze_sole_consumers(out.program, operators, &lint, sole_facts);
  rows.sole_consumer_ms = spans.end(id);

  out.diagnostics = diags.summary(file);
  out.ok = !diags.has_errors();
  return out;
}

}  // namespace perfbench

// The traced run's instruments, all outside src/: an in-memory span
// recorder, a copy of an operator registry whose operator bodies are
// wrapped in per-worker timers, and the compiler pipeline called pass by
// pass — the same entry points, in the same order and with the same
// default options, as compile_source — with one span per call.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph_opt.h"
#include "src/graph/template.h"
#include "src/opt/optimizer.h"
#include "src/runtime/registry.h"
#include "src/support/clock.h"

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  // relative to the recorder's creation
  int64_t end_ns = 0;
  uint32_t id = 0;       // 1-based; 0 means "no parent"
  uint32_t parent = 0;
  uint32_t request = 0;  // the traced pass the span belongs to
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(delirium::now_ticks()) {}

  uint32_t begin(std::string name, uint32_t parent, uint32_t request);
  /// Closes span `id` and returns its duration in milliseconds.
  double end(uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  delirium::Ticks origin_;
  std::vector<Span> spans_;
};

/// Operator-body time, aggregated per worker (one slot per worker plus
/// one for any thread outside the pool) rather than stored per call.
class OpBodyTimers {
 public:
  explicit OpBodyTimers(int workers) : slots_(static_cast<size_t>(workers) + 1) {}

  void add(int worker, int64_t ns) {
    Slot& s = slots_[worker >= 0 && static_cast<size_t>(worker) + 1 < slots_.size()
                         ? static_cast<size_t>(worker)
                         : slots_.size() - 1];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.ns.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
  }
  size_t slots() const { return slots_.size(); }
  uint64_t count(size_t slot) const { return slots_[slot].count.load(std::memory_order_relaxed); }
  uint64_t ns(size_t slot) const { return slots_[slot].ns.load(std::memory_order_relaxed); }
  uint64_t total_ns() const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> ns{0};
  };
  std::vector<Slot> slots_;
};

/// Copies every operator of `source` into `target` in the same order,
/// with the same OperatorInfo (arity, variadic, pure, fold,
/// destructive flags) and the same fault plan, wrapping each function
/// in a timer. Throws std::logic_error when a copied signature differs.
void copy_registry_with_timers(const delirium::OperatorRegistry& source,
                               delirium::OperatorRegistry& target, OpBodyTimers& timers);

/// Wall milliseconds of each compile_source pass, as traced.
struct PassRows {
  double lex_ms = 0, parse_ms = 0, macro_ms = 0, env_ms = 0, ast_opt_ms = 0;
  double graph_build_ms = 0, graph_opt_ms = 0, sched_hints_ms = 0, sole_consumer_ms = 0;
  double sum() const {
    return lex_ms + parse_ms + macro_ms + env_ms + ast_opt_ms + graph_build_ms + graph_opt_ms +
           sched_hints_ms + sole_consumer_ms;
  }
};

struct TracedCompile {
  bool ok = false;
  std::string diagnostics;
  delirium::CompiledProgram program;
  PassRows rows;
  size_t tokens = 0;
  size_t ast_nodes = 0;       // after macro expansion + AST optimization
  size_t nodes_built = 0;     // graph nodes straight out of build_graphs
  size_t templates_built = 0;
  delirium::OptStats opt_stats;
  delirium::GraphOptStats graph_opt_stats;
};

/// compile_source, one pass at a time, recording a span per pass call
/// under `parent`. Valid for release builds with default CompileOptions
/// (no verifier, every optimization on).
TracedCompile traced_compile(const std::string& file_name, const std::string& text,
                             const delirium::OperatorTable& operators, SpanRecorder& spans,
                             uint32_t parent, uint32_t request);

}  // namespace perfbench

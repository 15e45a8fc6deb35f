#include "perfbench/src/table1_gen.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/runtime/registry.h"
#include "src/support/clock.h"
#include "src/support/rng.h"

namespace perfbench {

namespace {

constexpr int64_t kResultMod = 9973;
constexpr int64_t kMagnitudeLimit = int64_t{1} << 40;

enum class Kind { kConst, kVar, kMacro, kBinary, kLet, kIf, kCall, kMacroCall };
enum class BinOp { kAdd, kSub, kMin, kMax };

struct Node {
  Kind kind = Kind::kConst;
  int64_t value = 0;  // kConst literal; kVar scope index; kMacro/kMacroCall macro index;
                      // kCall callee index
  BinOp op = BinOp::kAdd;
  int let_id = 0;     // kLet: the bound variable is v<let_id>
  std::vector<std::unique_ptr<Node>> kids;
};
using NodePtr = std::unique_ptr<Node>;

struct Macros {
  std::vector<int64_t> constant;  // M<k>
  std::vector<int64_t> offset;    // FM<k>(x) = add(x, offset) or sub(x, -offset)
};

class BodyGen {
 public:
  BodyGen(delirium::SplitMix64& rng, int num_macros) : rng_(rng), num_macros_(num_macros) {}

  NodePtr emit(int budget, int scope_size) {
    if (budget <= 1) return leaf(scope_size);
    const double roll = rng_.next_double();
    if (roll < 0.55) return binary(budget, scope_size);
    if (roll < 0.70) {
      auto n = make(Kind::kLet);
      n->let_id = next_let_++;
      n->kids.push_back(emit((budget - 1) / 2, scope_size));
      n->kids.push_back(emit((budget - 1) / 2, scope_size + 1));
      return n;
    }
    if (roll < 0.85) {
      auto n = make(Kind::kIf);
      n->kids.push_back(emit(2, scope_size));
      n->kids.push_back(emit((budget - 4) / 2, scope_size));
      n->kids.push_back(emit((budget - 4) / 2, scope_size));
      return n;
    }
    if (roll < 0.93 || num_macros_ == 0) return binary(budget, scope_size);
    auto n = make(Kind::kMacroCall);
    n->value = static_cast<int64_t>(rng_.next_below(num_macros_));
    n->kids.push_back(emit(budget - 1, scope_size));
    return n;
  }

  NodePtr binary(int budget, int scope_size) {
    auto n = make(Kind::kBinary);
    n->op = static_cast<BinOp>(rng_.next_below(4));
    n->kids.push_back(emit((budget - 1) / 2, scope_size));
    n->kids.push_back(emit((budget - 1) / 2, scope_size));
    return n;
  }

 private:
  static NodePtr make(Kind kind) {
    auto n = std::make_unique<Node>();
    n->kind = kind;
    return n;
  }

  NodePtr leaf(int scope_size) {
    const double roll = rng_.next_double();
    if (roll < 0.4) {
      auto n = make(Kind::kVar);
      n->value = static_cast<int64_t>(rng_.next_below(scope_size));
      return n;
    }
    if (roll < 0.7 && num_macros_ > 0) {
      auto n = make(Kind::kMacro);
      n->value = static_cast<int64_t>(rng_.next_below(num_macros_));
      return n;
    }
    auto n = make(Kind::kConst);
    n->value = rng_.next_range(-50, 50);
    return n;
  }

  delirium::SplitMix64& rng_;
  int num_macros_;
  int next_let_ = 0;
};

const char* op_name(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMin: return "min";
    case BinOp::kMax: return "max";
  }
  return "?";
}

// Prints a body. `scope` maps scope indices to names (a, b, v<k>...).
void print(const Node& n, std::vector<std::string>& scope, std::ostringstream& os) {
  switch (n.kind) {
    case Kind::kConst: os << n.value; return;
    case Kind::kVar: os << scope[n.value]; return;
    case Kind::kMacro: os << "M" << n.value; return;
    case Kind::kBinary:
      os << op_name(n.op) << "(";
      print(*n.kids[0], scope, os);
      os << ", ";
      print(*n.kids[1], scope, os);
      os << ")";
      return;
    case Kind::kLet:
      os << "let v" << n.let_id << " = ";
      print(*n.kids[0], scope, os);
      os << " in ";
      scope.push_back(std::string("v").append(std::to_string(n.let_id)));
      print(*n.kids[1], scope, os);
      scope.pop_back();
      return;
    case Kind::kIf:
      os << "if is_equal(mod(abs(";
      print(*n.kids[0], scope, os);
      os << "), 3), 0) then ";
      print(*n.kids[1], scope, os);
      os << " else ";
      print(*n.kids[2], scope, os);
      return;
    case Kind::kCall:
      os << "f" << n.value << "(";
      print(*n.kids[0], scope, os);
      os << ", ";
      print(*n.kids[1], scope, os);
      os << ")";
      return;
    case Kind::kMacroCall:
      os << "FM" << n.value << "(";
      print(*n.kids[0], scope, os);
      os << ")";
      return;
  }
}

class Evaluator {
 public:
  Evaluator(const std::vector<NodePtr>& bodies, const Macros& macros)
      : bodies_(bodies), macros_(macros) {}

  // fi(a, b) = mod(abs(body), 9973)
  int64_t call(size_t fn, int64_t a, int64_t b) {
    std::vector<int64_t> env = {a, b};
    const int64_t v = eval(*bodies_[fn], env);
    return (v < 0 ? -v : v) % kResultMod;
  }

 private:
  static int64_t checked(int64_t v) {
    if (v > kMagnitudeLimit || v < -kMagnitudeLimit) {
      throw std::logic_error("table1 generator: intermediate value out of range");
    }
    return v;
  }

  int64_t eval(const Node& n, std::vector<int64_t>& env) {
    switch (n.kind) {
      case Kind::kConst: return n.value;
      case Kind::kVar: return env[n.value];
      case Kind::kMacro: return macros_.constant[n.value];
      case Kind::kBinary: {
        const int64_t x = eval(*n.kids[0], env);
        const int64_t y = eval(*n.kids[1], env);
        switch (n.op) {
          case BinOp::kAdd: return checked(x + y);
          case BinOp::kSub: return checked(x - y);
          case BinOp::kMin: return std::min(x, y);
          case BinOp::kMax: return std::max(x, y);
        }
        return 0;
      }
      case Kind::kLet: {
        env.push_back(eval(*n.kids[0], env));
        const int64_t v = eval(*n.kids[1], env);
        env.pop_back();
        return v;
      }
      case Kind::kIf: {
        const int64_t c = eval(*n.kids[0], env);
        return (c < 0 ? -c : c) % 3 == 0 ? eval(*n.kids[1], env) : eval(*n.kids[2], env);
      }
      case Kind::kCall: {
        const int64_t x = eval(*n.kids[0], env);
        const int64_t y = eval(*n.kids[1], env);
        return call(static_cast<size_t>(n.value), x, y);
      }
      case Kind::kMacroCall:
        return checked(eval(*n.kids[0], env) + macros_.offset[n.value]);
    }
    return 0;
  }

  const std::vector<NodePtr>& bodies_;
  const Macros& macros_;
};

}  // namespace

GeneratedProgram generate_table1_program(const Table1Shape& shape, uint64_t seed) {
  delirium::SplitMix64 rng(seed);
  std::ostringstream os;

  Macros macros;
  for (int m = 0; m < shape.num_macros; ++m) {
    macros.constant.push_back(rng.next_range(1, 99));
    const int64_t amount = rng.next_range(1, 9);
    macros.offset.push_back(m % 2 == 0 ? amount : -amount);
    os << "define M" << m << " = " << macros.constant.back() << "\n";
    os << "define FM" << m << "(x) = " << (m % 2 == 0 ? "add" : "sub") << "(x, " << amount
       << ")\n";
  }
  os << "\n";

  // Each body: the random expression, then `add(add(E, f_l(..)), f_r(..))`
  // around it for the heap children that exist.
  std::vector<NodePtr> bodies;
  bodies.reserve(shape.num_functions);
  for (int i = 0; i < shape.num_functions; ++i) {
    BodyGen gen(rng, shape.num_macros);
    NodePtr body = gen.emit(shape.body_size, 2);
    for (int child : {2 * i + 1, 2 * i + 2}) {
      if (i >= shape.reachable_functions || child >= shape.reachable_functions) break;
      auto call = std::make_unique<Node>();
      call->kind = Kind::kCall;
      call->value = child;
      call->kids.push_back(gen.emit(4, 2));
      call->kids.push_back(gen.emit(4, 2));
      auto sum = std::make_unique<Node>();
      sum->kind = Kind::kBinary;
      sum->op = BinOp::kAdd;
      sum->kids.push_back(std::move(body));
      sum->kids.push_back(std::move(call));
      body = std::move(sum);
    }
    std::vector<std::string> scope = {"a", "b"};
    os << "f" << i << "(a, b)\n  mod(abs(";
    print(*body, scope, os);
    os << "), " << kResultMod << ")\n\n";
    bodies.push_back(std::move(body));
  }

  // main() adds up root_calls calls of f0, each with distinct arguments
  // (equal calls would be merged by CSE), so one run walks the whole
  // call heap root_calls times.
  std::vector<std::pair<int64_t, int64_t>> roots;
  os << "main()\n  ";
  for (int k = 0; k < shape.root_calls; ++k) {
    std::pair<int64_t, int64_t> args;
    do {
      args = {rng.next_range(1, 20), rng.next_range(1, 20)};
    } while (std::find(roots.begin(), roots.end(), args) != roots.end());
    roots.push_back(args);
    if (k + 1 < shape.root_calls) os << "add(";
    os << "f0(" << roots.back().first << ", " << roots.back().second << ")";
    if (k + 1 < shape.root_calls) os << ", ";
  }
  os << std::string(static_cast<size_t>(std::max(shape.root_calls - 1, 0)), ')') << "\n";

  GeneratedProgram out;
  out.text = os.str();
  delirium::Stopwatch clock;
  Evaluator eval(bodies, macros);
  for (const auto& [a, b] : roots) out.expected += eval.call(0, a, b);
  out.expected_ms = clock.elapsed_ms();
  return out;
}

Workload make_table1_compile(uint64_t seed, bool corrupt_reference) {
  Workload w;
  w.name = "table1_compile";
  w.workers = 2;
  w.registry = std::make_unique<delirium::OperatorRegistry>();
  delirium::register_builtin_operators(*w.registry);
  GeneratedProgram gen = generate_table1_program(Table1Shape{}, seed);
  w.seq_ref_ms = gen.expected_ms;
  w.jobs.push_back({"table1", std::move(gen.text),
                    expect_int(gen.expected + (corrupt_reference ? 1 : 0))});
  return w;
}

}  // namespace perfbench

#include "src/opt/optimizer.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/lang/macro.h"

namespace delirium {

bool expr_to_const(const Expr* e, ConstValue& out) {
  if (e == nullptr) return false;
  switch (e->kind) {
    case ExprKind::kIntLit: out = e->int_value; return true;
    case ExprKind::kFloatLit: out = e->float_value; return true;
    case ExprKind::kStringLit: out = e->str_value; return true;
    case ExprKind::kNullLit: out = std::monostate{}; return true;
    default: return false;
  }
}

Expr* const_to_expr(const ConstValue& v, AstContext& ctx, SourceRange range) {
  if (std::holds_alternative<std::monostate>(v)) return ctx.make_null(range);
  if (const auto* i = std::get_if<int64_t>(&v)) return ctx.make_int(*i, range);
  if (const auto* d = std::get_if<double>(&v)) return ctx.make_float(*d, range);
  return ctx.make_string(std::get<std::string>(v), range);
}

bool is_pure_expr(const Expr* e, const OperatorTable& operators) {
  if (e == nullptr) return false;
  switch (e->kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kStringLit:
    case ExprKind::kNullLit:
    case ExprKind::kVar:
      return true;
    case ExprKind::kTuple: {
      for (const Expr* a : e->args) {
        if (!is_pure_expr(a, operators)) return false;
      }
      return true;
    }
    case ExprKind::kApply: {
      if (e->callee == nullptr || e->callee->kind != ExprKind::kVar) return false;
      const OperatorInfo* info = operators.lookup(e->callee->str_value);
      if (info == nullptr || !info->pure) return false;
      for (const Expr* a : e->args) {
        if (!is_pure_expr(a, operators)) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

namespace {

// ---------------------------------------------------------------------------
// Constant propagation / folding.
// ---------------------------------------------------------------------------

class ConstFoldPass {
 public:
  ConstFoldPass(AstContext& ctx, const OperatorTable& operators, OptStats& stats)
      : ctx_(ctx), operators_(operators), stats_(stats) {}

  int run(Program& program) {
    rewrites_ = 0;
    for (FuncDecl* f : program.functions) {
      env_.clear();
      scope_stack_.clear();
      f->body = rewrite(f->body);
    }
    return rewrites_;
  }

 private:
  // Names currently bound to known constants. Shadowing is handled by
  // recording "unknown" entries for non-constant binders.
  struct EnvEntry {
    std::string name;
    bool known = false;
    ConstValue value;
  };

  void push_entry(const std::string& name, bool known, ConstValue value = {}) {
    env_.push_back(EnvEntry{name, known, std::move(value)});
  }

  const EnvEntry* find(const std::string& name) const {
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->name == name) return &*it;
    }
    return nullptr;
  }

  size_t mark() const { return env_.size(); }
  void release(size_t m) { env_.resize(m); }

  Expr* rewrite(Expr* e) {
    if (e == nullptr) return nullptr;
    switch (e->kind) {
      case ExprKind::kIntLit:
      case ExprKind::kFloatLit:
      case ExprKind::kStringLit:
      case ExprKind::kNullLit:
        return e;
      case ExprKind::kVar: {
        const EnvEntry* entry = find(e->str_value);
        if (entry != nullptr && entry->known) {
          ++rewrites_;
          ++stats_.constants_folded;
          return const_to_expr(entry->value, ctx_, e->range);
        }
        return e;
      }
      case ExprKind::kTuple: {
        for (Expr*& a : e->args) a = rewrite(a);
        return e;
      }
      case ExprKind::kApply: {
        for (Expr*& a : e->args) a = rewrite(a);
        if (e->callee != nullptr && e->callee->kind != ExprKind::kVar) {
          e->callee = rewrite(e->callee);
        }
        // Fold pure operator applications over constant arguments.
        if (e->callee != nullptr && e->callee->kind == ExprKind::kVar) {
          const OperatorInfo* info = operators_.lookup(e->callee->str_value);
          if (info != nullptr && info->pure && info->fold) {
            std::vector<ConstValue> consts(e->args.size());
            bool all_const = true;
            for (size_t i = 0; i < e->args.size(); ++i) {
              all_const = all_const && expr_to_const(e->args[i], consts[i]);
            }
            if (all_const) {
              if (auto folded = info->fold(consts)) {
                ++rewrites_;
                ++stats_.constants_folded;
                return const_to_expr(*folded, ctx_, e->range);
              }
            }
          }
        }
        return e;
      }
      case ExprKind::kIf: {
        e->cond = rewrite(e->cond);
        ConstValue cv;
        if (expr_to_const(e->cond, cv)) {
          ++rewrites_;
          ++stats_.branches_resolved;
          return rewrite(const_truthy(cv) ? e->then_branch : e->else_branch);
        }
        e->then_branch = rewrite(e->then_branch);
        e->else_branch = rewrite(e->else_branch);
        return e;
      }
      case ExprKind::kLet: {
        const size_t m = mark();
        for (Binding& b : e->bindings) {
          if (b.kind == Binding::Kind::kFunction) {
            // Constants from the enclosing scope remain valid inside the
            // local function body, except where shadowed by parameters.
            const size_t fm = mark();
            push_entry(b.names[0], false);
            for (const std::string& p : b.params) push_entry(p, false);
            b.value = rewrite(b.value);
            release(fm);
            push_entry(b.names[0], false);
            continue;
          }
          b.value = rewrite(b.value);
          if (b.kind == Binding::Kind::kValue) {
            ConstValue cv;
            if (expr_to_const(b.value, cv)) {
              push_entry(b.names[0], true, cv);
            } else {
              push_entry(b.names[0], false);
            }
          } else {
            for (const std::string& n : b.names) push_entry(n, false);
          }
        }
        e->body = rewrite(e->body);
        release(m);
        return e;
      }
      case ExprKind::kIterate: {
        for (LoopVar& lv : e->loop_vars) lv.init = rewrite(lv.init);
        const size_t m = mark();
        // Loop variables change across iterations: never constants.
        for (const LoopVar& lv : e->loop_vars) push_entry(lv.name, false);
        for (LoopVar& lv : e->loop_vars) lv.step = rewrite(lv.step);
        e->cond = rewrite(e->cond);
        release(m);
        return e;
      }
    }
    return e;
  }

  AstContext& ctx_;
  const OperatorTable& operators_;
  OptStats& stats_;
  std::vector<EnvEntry> env_;
  std::vector<size_t> scope_stack_;
  int rewrites_ = 0;
};

// ---------------------------------------------------------------------------
// Common sub-expression elimination.
// ---------------------------------------------------------------------------
//
// Within each function, a let binding of a pure expression makes later
// structurally-equal pure expressions redundant: they are replaced by a
// reference to the bound name. Scoping is respected by tracking which
// bindings are live and which names have been shadowed.

class CsePass {
 public:
  CsePass(const OperatorTable& operators, OptStats& stats)
      : operators_(operators), stats_(stats) {}

  int run(Program& program) {
    rewrites_ = 0;
    for (FuncDecl* f : program.functions) {
      available_.clear();
      visit(f->body);
    }
    return rewrites_;
  }

 private:
  struct Available {
    const Expr* value = nullptr;
    std::string name;
    std::unordered_set<std::string> refs;  // free names the value mentions
    bool valid = true;
  };

  static void collect_refs(const Expr* e, std::unordered_set<std::string>& refs) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kVar) refs.insert(e->str_value);
    for_each_child(e, [&refs](const Expr* c) { collect_refs(c, refs); });
  }

  /// A binder for `name` appears: every available expression whose name or
  /// referenced names collide is permanently invalidated. Conservative
  /// (inner scopes end) but sound.
  void binder_appears(const std::string& name) {
    for (Available& a : available_) {
      if (a.valid && (a.name == name || a.refs.count(name) > 0)) a.valid = false;
    }
  }

  std::string find_available(const Expr* e) const {
    for (auto it = available_.rbegin(); it != available_.rend(); ++it) {
      if (it->valid && expr_equal(it->value, e)) return it->name;
    }
    return {};
  }

  bool cse_candidate(const Expr* e) const {
    return (e->kind == ExprKind::kApply || e->kind == ExprKind::kTuple) &&
           is_pure_expr(e, operators_);
  }

  void visit(Expr*& e) {
    if (e == nullptr) return;
    switch (e->kind) {
      case ExprKind::kLet: {
        const size_t mark = available_.size();
        for (Binding& b : e->bindings) {
          if (b.kind == Binding::Kind::kFunction) {
            // Function bodies execute per call; nothing inside can be
            // shared with the enclosing region. Fresh context.
            std::vector<Available> saved;
            saved.swap(available_);
            visit(b.value);
            available_.swap(saved);
            binder_appears(b.names[0]);
            continue;
          }
          visit(b.value);
          if (b.kind == Binding::Kind::kValue && cse_candidate(b.value)) {
            const std::string replacement = find_available(b.value);
            if (!replacement.empty()) {
              ++rewrites_;
              ++stats_.cse_replacements;
              b.value = make_var_like(b.value, replacement);
            }
          }
          for (const std::string& n : b.names) binder_appears(n);
          if (b.kind == Binding::Kind::kValue && cse_candidate(b.value)) {
            Available a;
            a.value = b.value;
            a.name = b.names[0];
            collect_refs(b.value, a.refs);
            available_.push_back(std::move(a));
          }
        }
        visit(e->body);
        available_.resize(mark);
        return;
      }
      case ExprKind::kApply:
      case ExprKind::kTuple: {
        for (Expr*& a : e->args) visit(a);
        if (e->callee != nullptr && e->callee->kind != ExprKind::kVar) visit(e->callee);
        if (cse_candidate(e)) {
          const std::string replacement = find_available(e);
          if (!replacement.empty()) {
            ++rewrites_;
            ++stats_.cse_replacements;
            e = make_var_like(e, replacement);
          }
        }
        return;
      }
      case ExprKind::kIf: {
        visit(e->cond);
        // Branches execute conditionally; expressions from one branch must
        // not serve the other or the continuation.
        const size_t m = available_.size();
        visit(e->then_branch);
        available_.resize(m);
        visit(e->else_branch);
        available_.resize(m);
        return;
      }
      case ExprKind::kIterate: {
        for (LoopVar& lv : e->loop_vars) visit(lv.init);
        // Loop variables are rebound each iteration. Within one iteration
        // all steps and the condition see the same bindings, so sharing
        // inside the loop region is fine once outer entries touching the
        // loop names are invalidated.
        for (const LoopVar& lv : e->loop_vars) binder_appears(lv.name);
        const size_t m = available_.size();
        for (LoopVar& lv : e->loop_vars) visit(lv.step);
        visit(e->cond);
        available_.resize(m);
        return;
      }
      default: {
        for_each_child_mut(e, [this](Expr*& child) { visit(child); });
        return;
      }
    }
  }

  static Expr* make_var_like(Expr* original, const std::string& name) {
    // Repurpose the node in place as a variable reference; the arena keeps
    // ownership either way.
    original->kind = ExprKind::kVar;
    original->str_value = name;
    original->callee = nullptr;
    original->args.clear();
    original->bindings.clear();
    original->body = original->cond = original->then_branch = original->else_branch = nullptr;
    original->loop_vars.clear();
    return original;
  }

  const OperatorTable& operators_;
  OptStats& stats_;
  std::vector<Available> available_;
  int rewrites_ = 0;
};

// ---------------------------------------------------------------------------
// Dead code elimination.
// ---------------------------------------------------------------------------

class DcePass {
 public:
  DcePass(const OperatorTable& operators, OptStats& stats)
      : operators_(operators), stats_(stats) {}

  int run(Program& program, const std::string& entry_point, bool remove_functions) {
    rewrites_ = 0;
    for (FuncDecl* f : program.functions) {
      bool changed = true;
      while (changed) {
        changed = false;
        visit(f->body, changed);
      }
    }
    if (remove_functions) remove_dead_functions(program, entry_point);
    return rewrites_;
  }

 private:
  static void count_uses(const Expr* e, std::unordered_map<std::string, int>& uses) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kVar) ++uses[e->str_value];
    for_each_child(e, [&uses](const Expr* c) { count_uses(c, uses); });
  }

  void visit(Expr* e, bool& changed) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kLet && e->bindings.empty() && e->body != nullptr) {
      // A let whose bindings were all removed collapses to its body.
      Expr* body = e->body;
      *e = *body;
      ++rewrites_;
      changed = true;
      visit(e, changed);
      return;
    }
    if (e->kind == ExprKind::kLet) {
      // Uses are counted across the rest of the let (later bindings and
      // body); an unused pure binding can be dropped. Shadowing by later
      // bindings of the same name is prevented upstream by the
      // single-assignment check.
      for (size_t i = 0; i < e->bindings.size();) {
        const Binding& b = e->bindings[i];
        std::unordered_map<std::string, int> uses;
        for (size_t j = i + 1; j < e->bindings.size(); ++j) {
          count_uses(e->bindings[j].value, uses);
        }
        count_uses(e->body, uses);
        bool referenced = false;
        for (const std::string& n : b.names) referenced = referenced || uses[n] > 0;
        const bool removable =
            !referenced && (b.kind == Binding::Kind::kFunction ||
                            is_pure_expr(b.value, operators_));
        if (removable) {
          e->bindings.erase(e->bindings.begin() + static_cast<long>(i));
          ++rewrites_;
          ++stats_.dead_bindings_removed;
          changed = true;
        } else {
          ++i;
        }
      }
      if (e->bindings.empty() && e->body != nullptr) {
        Expr* body = e->body;
        *e = *body;
        ++rewrites_;
        changed = true;
        visit(e, changed);
        return;
      }
    }
    for_each_child_mut(e, [this, &changed](Expr*& child) { visit(child, changed); });
  }

  void remove_dead_functions(Program& program, const std::string& entry_point) {
    std::unordered_map<std::string, const FuncDecl*> by_name;
    for (const FuncDecl* f : program.functions) by_name[f->name] = f;
    std::unordered_set<std::string> live;
    std::vector<std::string> work{entry_point};
    while (!work.empty()) {
      std::string cur = work.back();
      work.pop_back();
      if (!live.insert(cur).second) continue;
      auto it = by_name.find(cur);
      if (it == by_name.end()) continue;
      collect_names(it->second->body, by_name, work);
    }
    std::vector<FuncDecl*> kept;
    for (FuncDecl* f : program.functions) {
      if (live.count(f->name) > 0) {
        kept.push_back(f);
      } else {
        ++rewrites_;
        ++stats_.dead_functions_removed;
      }
    }
    program.functions = std::move(kept);
  }

  static void collect_names(const Expr* e,
                            const std::unordered_map<std::string, const FuncDecl*>& by_name,
                            std::vector<std::string>& out) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kVar && by_name.count(e->str_value) > 0) {
      out.push_back(e->str_value);
    }
    for_each_child(e, [&](const Expr* c) { collect_names(c, by_name, out); });
  }

  const OperatorTable& operators_;
  OptStats& stats_;
  int rewrites_ = 0;
};

// ---------------------------------------------------------------------------
// Inline function expansion.
// ---------------------------------------------------------------------------

class InlinePass {
 public:
  InlinePass(Program& program, AstContext& ctx, const AnalysisResult& analysis,
             const OptimizeOptions& options, OptStats& stats)
      : ctx_(ctx), analysis_(analysis), options_(options), stats_(stats) {
    for (FuncDecl* f : program.functions) by_name_[f->name] = f;
  }

  int run(Program& program) {
    rewrites_ = 0;
    for (FuncDecl* f : program.functions) {
      f->body = rewrite(f->body, 0);
    }
    return rewrites_;
  }

 private:
  bool inlinable(const std::string& name) const {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) return false;
    if (it->second->body == nullptr) return false;  // signature-only stub
    if (analysis_.is_recursive(name)) return false;
    return subtree_weight(it->second->body) <= options_.inline_max_weight;
  }

  /// Rename every binder in a tree to a fresh name so that substituted
  /// caller expressions cannot be captured.
  Expr* alpha_rename(const Expr* e) {
    std::unordered_map<std::string, std::string> renames;
    return alpha_walk(e, renames);
  }

  std::string fresh(const std::string& base) {
    return "_r" + std::to_string(counter_++) + "_" + base;
  }

  Expr* alpha_walk(const Expr* e, std::unordered_map<std::string, std::string> renames) {
    if (e == nullptr) return nullptr;
    switch (e->kind) {
      case ExprKind::kVar: {
        auto it = renames.find(e->str_value);
        return ctx_.make_var(it != renames.end() ? it->second : e->str_value, e->range);
      }
      case ExprKind::kIntLit:
      case ExprKind::kFloatLit:
      case ExprKind::kStringLit:
      case ExprKind::kNullLit:
        return ctx_.clone(e);
      case ExprKind::kTuple: {
        std::vector<Expr*> elems;
        for (const Expr* a : e->args) elems.push_back(alpha_walk(a, renames));
        return ctx_.make_tuple(std::move(elems), e->range);
      }
      case ExprKind::kApply: {
        Expr* callee = alpha_walk(e->callee, renames);
        std::vector<Expr*> args;
        for (const Expr* a : e->args) args.push_back(alpha_walk(a, renames));
        return ctx_.make_apply(callee, std::move(args), e->range);
      }
      case ExprKind::kIf:
        return ctx_.make_if(alpha_walk(e->cond, renames), alpha_walk(e->then_branch, renames),
                            alpha_walk(e->else_branch, renames), e->range);
      case ExprKind::kLet: {
        std::vector<Binding> bindings;
        for (const Binding& b : e->bindings) {
          Binding nb;
          nb.kind = b.kind;
          nb.range = b.range;
          if (b.kind == Binding::Kind::kFunction) {
            const std::string fname = fresh(b.names[0]);
            renames[b.names[0]] = fname;
            nb.names.push_back(fname);
            auto inner = renames;
            for (const std::string& p : b.params) {
              const std::string np = fresh(p);
              inner[p] = np;
              nb.params.push_back(np);
            }
            nb.value = alpha_walk(b.value, inner);
          } else {
            nb.value = alpha_walk(b.value, renames);
            for (const std::string& n : b.names) {
              const std::string nn = fresh(n);
              renames[n] = nn;
              nb.names.push_back(nn);
            }
          }
          bindings.push_back(std::move(nb));
        }
        Expr* body = alpha_walk(e->body, renames);
        return ctx_.make_let(std::move(bindings), body, e->range);
      }
      case ExprKind::kIterate: {
        Expr* out = ctx_.make(ExprKind::kIterate, e->range);
        std::vector<Expr*> inits;
        for (const LoopVar& lv : e->loop_vars) inits.push_back(alpha_walk(lv.init, renames));
        auto inner = renames;
        std::vector<std::string> new_names;
        for (const LoopVar& lv : e->loop_vars) {
          const std::string nn = fresh(lv.name);
          inner[lv.name] = nn;
          new_names.push_back(nn);
        }
        for (size_t i = 0; i < e->loop_vars.size(); ++i) {
          LoopVar nlv;
          nlv.name = new_names[i];
          nlv.range = e->loop_vars[i].range;
          nlv.init = inits[i];
          nlv.step = alpha_walk(e->loop_vars[i].step, inner);
          out->loop_vars.push_back(std::move(nlv));
        }
        out->cond = alpha_walk(e->cond, inner);
        auto it = inner.find(e->result_name);
        out->result_name = it != inner.end() ? it->second : e->result_name;
        return out;
      }
    }
    return ctx_.clone(e);
  }

  Expr* rewrite(Expr* e, int depth) {
    if (e == nullptr) return nullptr;
    for_each_child_mut(e, [this, depth](Expr*& child) { child = rewrite(child, depth); });
    if (depth >= options_.inline_max_depth) return e;
    if (e->kind != ExprKind::kApply || e->callee == nullptr ||
        e->callee->kind != ExprKind::kVar) {
      return e;
    }
    const std::string& name = e->callee->str_value;
    if (!inlinable(name)) return e;
    const FuncDecl* target = by_name_.at(name);
    if (target->params.size() != e->args.size()) return e;  // sema already reported

    Expr* body = alpha_rename(target->body);
    // Bind arguments: trivial arguments substitute directly; the rest go
    // through let bindings so they are still evaluated exactly once.
    std::unordered_map<std::string, const Expr*> subst;
    std::vector<Binding> arg_bindings;
    for (size_t i = 0; i < e->args.size(); ++i) {
      Expr* arg = e->args[i];
      const bool trivial = arg->is_literal() || arg->kind == ExprKind::kVar;
      if (trivial) {
        subst[target->params[i]] = arg;
      } else {
        Binding b;
        b.kind = Binding::Kind::kValue;
        const std::string tmp = fresh(target->params[i]);
        b.names.push_back(tmp);
        b.value = arg;
        b.range = arg->range;
        arg_bindings.push_back(std::move(b));
        subst[target->params[i]] = ctx_.make_var(tmp, arg->range);
      }
    }
    Expr* inlined = substitute(body, subst, ctx_);
    inlined = rewrite(inlined, depth + 1);
    ++rewrites_;
    ++stats_.calls_inlined;
    if (arg_bindings.empty()) return inlined;
    return ctx_.make_let(std::move(arg_bindings), inlined, e->range);
  }

  AstContext& ctx_;
  const AnalysisResult& analysis_;
  const OptimizeOptions& options_;
  OptStats& stats_;
  std::unordered_map<std::string, FuncDecl*> by_name_;
  int rewrites_ = 0;
  int counter_ = 0;
};

}  // namespace

int pass_constant_fold(Program& program, AstContext& ctx, const OperatorTable& operators,
                       OptStats& stats) {
  return ConstFoldPass(ctx, operators, stats).run(program);
}

int pass_cse(Program& program, const OperatorTable& operators, OptStats& stats) {
  return CsePass(operators, stats).run(program);
}

int pass_dce(Program& program, const OperatorTable& operators, const std::string& entry_point,
             OptStats& stats, bool remove_functions) {
  return DcePass(operators, stats).run(program, entry_point, remove_functions);
}

int pass_inline(Program& program, AstContext& ctx, const AnalysisResult& analysis,
                const OptimizeOptions& options, OptStats& stats) {
  return InlinePass(program, ctx, analysis, options, stats).run(program);
}

OptStats optimize_program(Program& program, AstContext& ctx, const OperatorTable& operators,
                          const AnalysisResult& analysis, const OptimizeOptions& options,
                          const std::string& entry_point) {
  OptStats stats;
  for (int round = 0; round < options.max_rounds; ++round) {
    int changes = 0;
    if (options.inline_expansion) changes += pass_inline(program, ctx, analysis, options, stats);
    if (options.constant_fold) changes += pass_constant_fold(program, ctx, operators, stats);
    if (options.cse) changes += pass_cse(program, operators, stats);
    if (options.dce) {
      changes += pass_dce(program, operators, entry_point, stats, options.dce_functions);
    }
    ++stats.rounds;
    if (changes == 0) break;
  }
  return stats;
}

}  // namespace delirium

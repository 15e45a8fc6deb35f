// Compile-time view of the operator registry.
//
// Operators are the embedded sequential sub-computations (C/Fortran in the
// paper, C++ here). The compiler needs only their signatures: name, arity,
// purity (for CSE/DCE), and an optional constant folder (for constant
// propagation). The runtime's OperatorRegistry implements this interface.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace delirium {

/// A compile-time constant: the atomic values of the language.
/// std::monostate represents NULL.
using ConstValue = std::variant<std::monostate, int64_t, double, std::string>;

/// Truthiness of a constant, the compile-time twin of Value::truthy():
/// NULL, integer zero, and float zero (either sign) are false; every
/// other value, strings included, is true. Branch folding and the
/// not/and/or folders use this one rule.
inline bool const_truthy(const ConstValue& v) {
  if (std::holds_alternative<std::monostate>(v)) return false;
  if (const auto* i = std::get_if<int64_t>(&v)) return *i != 0;
  if (const auto* d = std::get_if<double>(&v)) return *d != 0.0;
  return true;
}

/// Folds an application of a pure operator over constant arguments.
/// Returns nullopt when the operator cannot fold these inputs.
using ConstFolder =
    std::function<std::optional<ConstValue>(std::span<const ConstValue>)>;

struct OperatorInfo {
  std::string name;
  int arity = 0;           // fixed argument count; ignored when variadic
  bool variadic = false;
  /// Pure operators have no side effects and do not destructively modify
  /// arguments; they are eligible for CSE, DCE, and constant folding.
  bool pure = false;
  ConstFolder fold;        // optional; only meaningful when pure
  /// Per-argument write-access declaration (§2.1). The sole-consumer
  /// analysis and the graph verifier read this at compile time; the
  /// runtime enforces it through copy-on-write.
  std::vector<bool> destructive;

  bool is_destructive(size_t arg) const {
    return arg < destructive.size() && destructive[arg];
  }
  bool any_destructive() const {
    for (bool d : destructive) {
      if (d) return true;
    }
    return false;
  }
};

/// Abstract lookup used by sema, the optimizer, and the graph builder.
class OperatorTable {
 public:
  virtual ~OperatorTable() = default;
  /// Returns the operator's signature, or nullptr if unknown.
  virtual const OperatorInfo* lookup(const std::string& name) const = 0;
  /// Stable dense index of the operator (used by compiled graphs), or -1.
  virtual int index_of(const std::string& name) const = 0;
};

/// An always-empty table, for programs that use no operators.
class EmptyOperatorTable final : public OperatorTable {
 public:
  const OperatorInfo* lookup(const std::string&) const override { return nullptr; }
  int index_of(const std::string&) const override { return -1; }
};

}  // namespace delirium

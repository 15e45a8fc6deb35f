// Coverage of every built-in operator, both at run time and through the
// constant folder (they must agree).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace delirium {
namespace {

using testing::eval;
using testing::eval_int;

/// Evaluate `expr` with and without optimization; both must agree (the
/// fold path vs the runtime path).
void check_int(const std::string& expr, int64_t expected) {
  auto reg = testing::builtin_registry();
  CompileOptions no_opt;
  no_opt.optimize = false;
  const std::string source = "main() " + expr;
  Runtime runtime(*reg, {.num_workers = 1});
  EXPECT_EQ(runtime.run(compile_or_throw(source, *reg, no_opt)).as_int(), expected)
      << expr << " (runtime)";
  EXPECT_EQ(runtime.run(compile_or_throw(source, *reg)).as_int(), expected)
      << expr << " (folded)";
}

void check_float(const std::string& expr, double expected) {
  auto reg = testing::builtin_registry();
  CompileOptions no_opt;
  no_opt.optimize = false;
  const std::string source = "main() " + expr;
  Runtime runtime(*reg, {.num_workers = 1});
  EXPECT_DOUBLE_EQ(runtime.run(compile_or_throw(source, *reg, no_opt)).as_float(), expected)
      << expr;
  EXPECT_DOUBLE_EQ(runtime.run(compile_or_throw(source, *reg)).as_float(), expected) << expr;
}

TEST(Builtins, IncrementsAndArithmetic) {
  check_int("incr(41)", 42);
  check_int("decr(43)", 42);
  check_int("add(40, 2)", 42);
  check_int("sub(50, 8)", 42);
  check_int("mul(6, 7)", 42);
  check_int("div(85, 2)", 42);
  check_int("mod(142, 50)", 42);
  check_int("neg(-42)", 42);
  check_int("abs(-42)", 42);
  check_int("min(42, 99)", 42);
  check_int("max(42, -1)", 42);
}

TEST(Builtins, MixedIntFloatPromotes) {
  check_float("add(1, 0.5)", 1.5);
  check_float("mul(2.5, 2)", 5.0);
  check_float("div(5, 2.0)", 2.5);
  check_float("min(1.5, 2)", 1.5);
}

TEST(Builtins, FloatFunctions) {
  check_float("sqrt(6.25)", 2.5);
  check_int("floor(2.9)", 2);
  check_int("ceil(2.1)", 3);
  check_int("floor(-2.1)", -3);
}

TEST(Builtins, Comparisons) {
  check_int("is_equal(3, 3)", 1);
  check_int("is_equal(3, 4)", 0);
  check_int("is_equal(\"a\", \"a\")", 1);
  check_int("is_equal(NULL, NULL)", 1);
  check_int("is_equal(1, \"1\")", 0);
  check_int("is_not_equal(3, 4)", 1);
  check_int("less_than(1, 2)", 1);
  check_int("less_than(2, 1)", 0);
  check_int("less_equal(2, 2)", 1);
  check_int("greater_than(3, 2)", 1);
  check_int("greater_equal(2, 3)", 0);
  check_int("is_equal(1, 1.0)", 1);  // numeric cross-type
}

TEST(Builtins, Logic) {
  check_int("not(0)", 1);
  check_int("not(3)", 0);
  check_int("not(NULL)", 1);
  check_int("and(1, 1)", 1);
  check_int("and(1, 0)", 0);
  check_int("or(0, 2)", 1);
  check_int("or(0, NULL)", 0);
}

TEST(Builtins, LogicFoldsAgreeWithRuntimeOnEveryTruthinessCase) {
  // The not/and/or folders and the optimizer's branch folding share
  // const_truthy; the operators themselves use Value::truthy. Both rules
  // must agree on every kind of constant, including -0.0 and "".
  auto reg = testing::builtin_registry();
  const std::vector<ConstValue> table = {
      ConstValue{},           ConstValue{int64_t{0}}, ConstValue{int64_t{1}},
      ConstValue{0.0},        ConstValue{-0.0},       ConstValue{2.5},
      ConstValue{std::string()}, ConstValue{std::string("x")}};
  // Table rows by index; the failure message names the rows used.
  const auto check = [&](const std::string& op, const std::vector<size_t>& rows) {
    const OperatorDef& def = reg->at(static_cast<size_t>(reg->index_of(op)));
    std::vector<ConstValue> consts;
    std::vector<Value> args;
    std::string where = op;
    for (const size_t r : rows) {
      consts.push_back(table[r]);
      args.push_back(Value::from_const(table[r]));
      where += " row" + std::to_string(r);
    }
    const std::optional<ConstValue> folded = def.info.fold(consts);
    ASSERT_TRUE(folded.has_value()) << where;
    OpContext ctx(def, args, 0);
    EXPECT_TRUE(deep_equal(Value::from_const(*folded), def.fn(ctx))) << where;
  };
  for (size_t a = 0; a < table.size(); ++a) {
    check("not", {a});
    for (size_t b = 0; b < table.size(); ++b) {
      check("and", {a, b});
      check("or", {a, b});
    }
  }
  // Spot-check the rule itself: only NULL and numeric zeros are false.
  EXPECT_FALSE(const_truthy(ConstValue{-0.0}));
  EXPECT_TRUE(const_truthy(ConstValue{std::string()}));
}

TEST(Builtins, Strings) {
  EXPECT_EQ(eval("main() concat(\"foo\", \"bar\")").as_string(), "foobar");
  check_int("str_len(\"hello\")", 5);
  EXPECT_EQ(eval("main() to_string(42)").as_string(), "42");
  EXPECT_EQ(eval("main() to_string(NULL)").as_string(), "NULL");
}

TEST(Builtins, Conversions) {
  check_int("to_int(\"42\")", 42);
  check_int("to_int(2.9)", 2);
  check_float("to_float(\"2.5\")", 2.5);
  check_float("to_float(7)", 7.0);
}

TEST(Builtins, Misc) {
  check_int("identity(42)", 42);
  check_int("is_null(NULL)", 1);
  check_int("is_null(0)", 0);
}

TEST(Builtins, PrintPassesValueThrough) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(eval_int("main() add(print(40), 2)"), 42);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("40"), std::string::npos);
}

TEST(Builtins, PrintIsNotFoldedAway) {
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw("main() let x = print(7) in 1", *reg);
  Runtime runtime(*reg, {.num_workers = 1});
  ::testing::internal::CaptureStdout();
  runtime.run(program);
  EXPECT_NE(::testing::internal::GetCapturedStdout().find("7"), std::string::npos);
}

TEST(Builtins, ErrorsAtRuntime) {
  EXPECT_THROW(eval("main() div(1, 0)"), RuntimeError);
  EXPECT_THROW(eval("main() mod(1, 0)"), RuntimeError);
  EXPECT_THROW(eval("main() incr(\"x\")"), RuntimeError);
  EXPECT_THROW(eval("main() mod(1.5, 2)"), RuntimeError);  // mod is integral
}

TEST(Builtins, FoldersNeverHideErrors) {
  // Folding must leave error-producing expressions for run time, even
  // inside otherwise-foldable contexts.
  auto reg = testing::builtin_registry();
  CompiledProgram program = compile_or_throw("main() add(1, div(2, sub(1, 1)))", *reg);
  Runtime runtime(*reg, {.num_workers = 1});
  EXPECT_THROW(runtime.run(program), RuntimeError);
}

}  // namespace
}  // namespace delirium

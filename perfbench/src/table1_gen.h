// Seeded generator of a Table-1-scale Delirium program that computes,
// alongside the text, the value the program must return — in C++, by
// evaluating the same expression trees it prints. The compiler under
// test is never the reference.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Table1Shape {
  int num_functions = 1200;
  int body_size = 60;  // approximate expression nodes per function body
  int num_macros = 30;
  /// f0..f(reachable-1) are called from main; the rest are never called,
  /// so the front end lexes, parses and analyses them and the AST
  /// optimizer's dead-function removal drops them before graph
  /// conversion.
  int reachable_functions = 127;  // a complete heap of depth 7
  /// Calls of f0 that main() adds up; scales the run, not the compile.
  int root_calls = 32;
};

struct GeneratedProgram {
  std::string text;
  int64_t expected = 0;
  double expected_ms = 0;  // time spent evaluating the expected value
};

/// The reachable functions form a binary heap of calls: fi calls f(2i+1)
/// and f(2i+2) at the top level of its body, never under an `if` or a
/// `let`, so each runs exactly once per program run and which functions
/// survive compilation does not depend on the seed. Bodies mix
/// add/sub/min/max, let, if and macro uses; every intermediate stays
/// below 2^40, so no expected value relies on int64 wrap-around.
GeneratedProgram generate_table1_program(const Table1Shape& shape, uint64_t seed);

}  // namespace perfbench

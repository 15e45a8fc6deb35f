// Shared types of the end-to-end benchmark (perfbench/README.md).
//
// A workload is a fixed list of jobs — Delirium source texts plus an
// independent check of each result — together with the operator
// registry they compile against and the worker count they run at. One
// iteration ("pass") compiles, runs and checks every job once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/registry.h"
#include "src/runtime/value.h"

namespace perfbench {

/// Returns an empty string when `result` is the expected value, else a
/// one-line description of the mismatch.
using ResultCheck = std::function<std::string(const delirium::Value& result)>;

struct Job {
  std::string name;
  std::string source;
  ResultCheck check;
};

struct Workload {
  std::string name;
  int workers = 1;
  /// The operator table the jobs compile against.
  std::unique_ptr<delirium::OperatorRegistry> registry;
  std::vector<Job> jobs;
  /// Wall time of computing every job's reference value. Only retina's
  /// reference runs the same model sequentially, so only there is
  /// runtime.speedup_vs_seq a speedup.
  double seq_ref_ms = 0;
};

/// Workload builders. Each generates its inputs from `seed` and computes
/// the expected results without the compiler under test. With
/// `corrupt_reference`, the first job's expectation is deliberately
/// wrong (the benchmark's self-test).
Workload make_corpus_dispatch(uint64_t seed, bool corrupt_reference);
Workload make_table1_compile(uint64_t seed, bool corrupt_reference);
Workload make_retina_fig1(uint64_t seed, bool corrupt_reference);

/// Rewrites `define NAME = value` lines of a program text. Throws when a
/// name has no define line, so a renamed define cannot silently leave a
/// workload at its default scale.
std::string set_defines(std::string text,
                        const std::vector<std::pair<std::string, std::string>>& values);

/// Reads a whole file; throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);

// Result-check helpers shared by the workloads.
ResultCheck expect_int(int64_t expected);
ResultCheck expect_float_rel(double expected, double rel_tol);

}  // namespace perfbench

// corpus_dispatch: the six example programs, scaled up through their
// `define`s, as one pass. Their operators are nanosecond builtins, so
// nearly all of the time is runtime dispatch and scheduling.
//
// Every expected value is computed here in plain C++, never by the
// Delirium compiler, and stays inside int64 (mergesort's checksum is
// reduced modulo CHECK_MOD in the benchmark's copy of the program).
#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench/src/bench.h"
#include "src/support/clock.h"
#include "src/support/rng.h"

namespace perfbench {

using delirium::Value;

namespace {

// The benchmark's copies of the corpus programs, relative to the
// repository root (the benchmark's working directory).
constexpr const char* kProgramsDir = "perfbench/programs";

// Scale of one pass. queens stays at 6: its do_it hard-codes six tries.
constexpr int64_t kFibN = 19;
constexpr int64_t kLoopsN = 100;
constexpr int64_t kSortN = 200;
constexpr int64_t kPiPieces = 8;
constexpr int64_t kPiSteps = 1000;
constexpr int64_t kPrimesLimit = 1200;
constexpr int64_t kQueensN = 6;

constexpr int64_t kKeyMod = 1000003;  // prime; keys lie in [0, kKeyMod)
constexpr int64_t kCheckMod = 1000000007;

int64_t ref_fib(int64_t n) {
  int64_t a = 0, b = 1;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

int64_t ref_sum_of_squares(int64_t n) { return n * (n + 1) * (2 * n + 1) / 6; }

int64_t ref_mergesort(int64_t n, int64_t key_mul, int64_t key_add) {
  std::vector<int64_t> keys;
  keys.reserve(n);
  for (int64_t k = 0; k < n; ++k) keys.push_back((k * key_mul + key_add) % kKeyMod);
  std::sort(keys.begin(), keys.end());
  int64_t acc = 0;
  for (int64_t x : keys) acc = (acc * 3 + x) % kCheckMod;
  return acc;
}

// Same operation order as pi.dlr: per-piece midpoint sums, then the
// pieces added in index order, then one division.
double ref_pi(int64_t pieces, int64_t steps) {
  double total = 0.0;
  for (int64_t k = 0; k < pieces; ++k) {
    double acc = 0.0;
    for (int64_t s = 0; s < steps; ++s) {
      const double x = (static_cast<double>(k) * static_cast<double>(steps) +
                        (static_cast<double>(s) + 0.5)) /
                       (static_cast<double>(pieces) * static_cast<double>(steps));
      acc = acc + 4.0 / (1.0 + x * x);
    }
    total = total + acc;
  }
  return total / (static_cast<double>(pieces) * static_cast<double>(steps));
}

int64_t ref_primes_below(int64_t limit) {
  std::vector<bool> composite(static_cast<size_t>(std::max<int64_t>(limit, 2)), false);
  int64_t count = 0;
  for (int64_t n = 2; n < limit; ++n) {
    if (composite[n]) continue;
    ++count;
    for (int64_t m = n * n; m < limit; m += n) composite[m] = true;
  }
  return count;
}

std::string program(const std::string& file,
                    const std::vector<std::pair<std::string, std::string>>& defines) {
  return set_defines(read_file(std::string(kProgramsDir) + "/" + file), defines);
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string set_defines(std::string text,
                        const std::vector<std::pair<std::string, std::string>>& values) {
  for (const auto& [name, value] : values) {
    const std::string head = "define " + name + " = ";
    const size_t at = text.find(head);
    if (at == std::string::npos || (at > 0 && text[at - 1] != '\n')) {
      throw std::runtime_error("program has no line '" + head + "...'");
    }
    const size_t begin = at + head.size();
    const size_t end = text.find('\n', begin);
    text.replace(begin, end == std::string::npos ? std::string::npos : end - begin, value);
  }
  return text;
}

ResultCheck expect_int(int64_t expected) {
  return [expected](const Value& v) -> std::string {
    if (v.kind() == Value::Kind::kInt && v.as_int() == expected) return "";
    return "expected int " + std::to_string(expected) + ", got " + v.to_display_string();
  };
}

ResultCheck expect_float_rel(double expected, double rel_tol) {
  return [expected, rel_tol](const Value& v) -> std::string {
    if (v.kind() == Value::Kind::kFloat) {
      const double got = v.as_float();
      const double err = got > expected ? got - expected : expected - got;
      if (err <= rel_tol * (expected < 0 ? -expected : expected)) return "";
    }
    std::ostringstream os;
    os.precision(17);
    os << "expected float " << expected << " (rel " << rel_tol << "), got " << v.to_display_string();
    return os.str();
  };
}

Workload make_corpus_dispatch(uint64_t seed, bool corrupt_reference) {
  Workload w;
  w.name = "corpus_dispatch";
  w.workers = 2;
  w.registry = std::make_unique<delirium::OperatorRegistry>();
  delirium::register_builtin_operators(*w.registry);

  delirium::SplitMix64 rng(seed);
  const int64_t key_mul = rng.next_range(1000, kKeyMod - 1);
  const int64_t key_add = rng.next_range(0, kKeyMod - 1);
  const auto n = [](int64_t v) { return std::to_string(v); };

  delirium::Stopwatch ref_clock;
  const int64_t fib = ref_fib(kFibN) + (corrupt_reference ? 1 : 0);
  const int64_t squares = ref_sum_of_squares(kLoopsN);
  const int64_t sorted = ref_mergesort(kSortN, key_mul, key_add);
  const double pi = ref_pi(kPiPieces, kPiSteps);
  const int64_t primes = ref_primes_below(kPrimesLimit);
  const int64_t queens_solutions = 4;  // 6-queens has exactly 4 solutions
  w.seq_ref_ms = ref_clock.elapsed_ms();

  w.jobs.push_back({"fib", program("fib.dlr", {{"N", n(kFibN)}}), expect_int(fib)});
  w.jobs.push_back({"loops", program("loops.dlr", {{"N", n(kLoopsN)}}), expect_int(squares)});
  w.jobs.push_back({"mergesort",
                    program("mergesort.dlr", {{"N", n(kSortN)},
                                              {"KEY_MUL", n(key_mul)},
                                              {"KEY_ADD", n(key_add)},
                                              {"KEY_MOD", n(kKeyMod)},
                                              {"CHECK_MOD", n(kCheckMod)}}),
                    expect_int(sorted)});
  w.jobs.push_back({"pi",
                    program("pi.dlr", {{"PIECES", n(kPiPieces)}, {"STEPS", n(kPiSteps)}}),
                    expect_float_rel(pi, 1e-12)});
  w.jobs.push_back(
      {"primes", program("primes.dlr", {{"LIMIT", n(kPrimesLimit)}}), expect_int(primes)});
  w.jobs.push_back(
      {"queens", program("queens.dlr", {{"N", n(kQueensN)}}), expect_int(queens_solutions)});
  return w;
}

}  // namespace perfbench

// Activation-pool gate (docs/RUNTIME.md §pooling): ExecutorCore serves
// Activation/WorkItem storage from a per-runtime arena + freelist, so
// steady-state runs should recycle every activation instead of hitting
// the global heap. This bench holds two contracts:
//
//  * pool_a vs pool_b — two identical pool-enabled runtimes,
//    interleaved min-of-N (the bench_trace_overhead protocol). Their
//    geometric-mean ratio across worker counts is the A/A noise floor;
//    the bench FAILS (exit 1) outside ±5%.
//  * off/on — the same program with DELIRIUM_ACTIVATION_POOL-style
//    pooling disabled (ExecConfig::activation_pool = false), reported
//    as a ratio against pool_a. Pooling must not be a pessimization:
//    the bench FAILS if the off/on geomean drops below the same noise
//    bound (i.e. the pooled build measurably slower than raw new/delete).
//
// Two workloads, chosen to stress the two allocation profiles:
//  * fan-out — §9.2 parmap over 512 cheap activations: wide bursts,
//    collector traffic, one spike of allocations then heavy reuse.
//  * tiny-op — deep iterate loop of trivial operators: one live
//    activation chain recycled thousands of times (pure freelist churn).
//
// `--quick` drops to 5 reps for CI; a JSON path as the last argument
// writes the results (BENCH_executor_core.json is a recorded run).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/delirium.h"
#include "src/tools/report.h"

using namespace delirium;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wide parmap of cheap operators joined by an iterate fold: one burst
/// of 512 activations, then reuse (same shape as bench_trace_overhead's
/// fan-out program).
const char* kFanOutSource = R"(
work(x) add(mul(x, x), incr(x))
total(p)
  iterate {
    i = 0, incr(i)
    acc = 0, add(acc, package_get(p, i))
  } while is_not_equal(i, package_size(p)), result acc
main() total(parmap(work, range(512)))
)";

/// Deep loop of trivial operators: allocation/recycle traffic dominates
/// because every operator does almost no work.
const char* kTinyOpSource = R"(
main()
  iterate {
    i = 0, incr(i)
    acc = 0, add(acc, mul(i, 3))
  } while is_not_equal(i, 20000), result acc
)";

struct Point {
  const char* workload;
  int workers;
  double pool_a_ms;
  double pool_b_ms;
  double off_ms;
  uint64_t pooled;     // RunStats.activations_pooled (pool_a, last rep)
  uint64_t allocated;  // RunStats.activations_allocated (pool_a, last rep)
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      json_path = argv[i];
    }
  }
  const int reps = quick ? 5 : 15;

  OperatorRegistry registry;
  register_builtin_operators(registry);

  std::vector<Point> points;
  for (const auto& [name, source] :
       std::vector<std::pair<const char*, const char*>>{{"fan-out", kFanOutSource},
                                                        {"tiny-op", kTinyOpSource}}) {
    const CompiledProgram program = compile_or_throw(source, registry);
    for (const int workers : quick ? std::vector<int>{4} : std::vector<int>{1, 2, 4, 8}) {
      RuntimeConfig config;
      config.num_workers = workers;
      Runtime pool_a(registry, config);
      Runtime pool_b(registry, config);
      config.activation_pool = false;
      Runtime off(registry, config);

      // Interleaved minimum-of-N: overhead is a lower-bound quantity,
      // and alternating the three runtimes cancels slow drift.
      auto timed = [&](Runtime& runtime) {
        const double start = now_ms();
        runtime.run(program);
        return now_ms() - start;
      };
      timed(pool_a);  // warm up outside the clock (also fills the arena)
      timed(pool_b);
      timed(off);
      Point p{name, workers, 1e30, 1e30, 1e30, 0, 0};
      for (int rep = 0; rep < reps; ++rep) {
        p.pool_a_ms = std::min(p.pool_a_ms, timed(pool_a));
        p.pool_b_ms = std::min(p.pool_b_ms, timed(pool_b));
        p.off_ms = std::min(p.off_ms, timed(off));
      }
      p.pooled = pool_a.last_stats().activations_pooled;
      p.allocated = pool_a.last_stats().activations_allocated;
      points.push_back(p);
    }
  }

  tools::Table table({"workload", "workers", "pool A (ms)", "pool B (ms)", "off (ms)",
                      "pool B/A", "off/pool", "pooled", "alloc'd"});
  double aa_log_sum = 0;
  double off_log_sum = 0;
  for (const Point& p : points) {
    const double aa_ratio = p.pool_b_ms / p.pool_a_ms;
    const double off_ratio = p.off_ms / p.pool_a_ms;
    aa_log_sum += std::log(aa_ratio);
    off_log_sum += std::log(off_ratio);
    table.add_row({p.workload, std::to_string(p.workers), tools::Table::ms(p.pool_a_ms, 2),
                   tools::Table::ms(p.pool_b_ms, 2), tools::Table::ms(p.off_ms, 2),
                   tools::Table::ratio(aa_ratio), tools::Table::ratio(off_ratio),
                   std::to_string(p.pooled), std::to_string(p.allocated)});
  }
  const double count = static_cast<double>(points.size());
  const double aa_geomean = std::exp(aa_log_sum / count);
  const double off_geomean = std::exp(off_log_sum / count);
  // --quick runs one worker count under CI sanitizers, where a single
  // A/A point is noisy and instrumentation dominates; the gate there is
  // only a smoke bound. The full run holds the real 5% contract.
  const double tolerance = quick ? 0.15 : 0.05;
  const bool aa_ok = aa_geomean >= 1.0 - tolerance && aa_geomean <= 1.0 + tolerance;
  // Pooling must be >= 1.0x within the same noise bound: off/pool below
  // 1 - tolerance means the pool costs more than it saves.
  const bool speedup_ok = off_geomean >= 1.0 - tolerance;
  std::printf("activation pool (parmap width 512 + tiny-op loop, interleaved min of %d):\n",
              reps);
  table.print(std::cout);
  std::printf("pooled A/A geomean ratio: %.3f\n", aa_geomean);
  std::printf("pool-off / pool-on geomean ratio: %.3f\n", off_geomean);

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"bench_activation_pool\",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"aa_geomean\": " << tools::Table::ms(aa_geomean, 3) << ",\n"
       << "  \"off_over_pool_geomean\": " << tools::Table::ms(off_geomean, 3) << ",\n"
       << "  \"interleaved_min_of_" << reps << "\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    json << "    {\"workload\": \"" << p.workload << "\", \"workers\": " << p.workers
         << ", \"pool_a_ms\": " << tools::Table::ms(p.pool_a_ms, 2)
         << ", \"pool_b_ms\": " << tools::Table::ms(p.pool_b_ms, 2)
         << ", \"off_ms\": " << tools::Table::ms(p.off_ms, 2)
         << ", \"aa_ratio\": " << tools::Table::ms(p.pool_b_ms / p.pool_a_ms, 3)
         << ", \"off_ratio\": " << tools::Table::ms(p.off_ms / p.pool_a_ms, 3)
         << ", \"activations_pooled\": " << p.pooled
         << ", \"activations_allocated\": " << p.allocated << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fputs(json.str().c_str(), stdout);
  }

  if (!aa_ok) {
    std::fprintf(stderr,
                 "FAIL: identical pooled runtimes differ by more than %.0f%% — the "
                 "measurement is unstable\n",
                 tolerance * 100);
    return 1;
  }
  if (!speedup_ok) {
    std::fprintf(stderr,
                 "FAIL: pooling is a pessimization (pool-off/pool-on %.3f < %.2f)\n",
                 off_geomean, 1.0 - tolerance);
    return 1;
  }
  std::printf("pool A/A within the noise bound and pooling is not a pessimization\n");
  return 0;
}

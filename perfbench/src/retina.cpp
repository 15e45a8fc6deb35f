// retina_fig1: the Figure-1 retina model (v2, balanced four-way split).
// Few nodes, heavy operator bodies, and multi-megabyte model blocks
// passed through destructive operators. The reference is the model's
// own sequential implementation, which the Delirium version must match
// bit for bit.
#include <cstdio>

#include "perfbench/src/bench.h"
#include "src/apps/retina/retina_ops.h"
#include "src/support/clock.h"

namespace perfbench {

Workload make_retina_fig1(uint64_t seed, bool corrupt_reference) {
  using namespace delirium::retina;
  RetinaParams params;
  params.width = params.height = 512;
  params.num_targets = 64;
  params.num_iter = 16;
  params.seed = seed;

  Workload w;
  w.name = "retina_fig1";
  // Two workers, each taking two of the four quarters. At four workers
  // the fork-join waits on any quarter whose core another process is
  // using, and on a shared 4-core host the run-to-run spread of run_ms
  // reached 40%; at two it stayed near 10% (perfbench/README.md).
  w.workers = 2;
  w.registry = std::make_unique<delirium::OperatorRegistry>();
  delirium::register_builtin_operators(*w.registry);
  register_retina_operators(*w.registry, params);

  delirium::Stopwatch ref_clock;
  const double expected = checksum(sequential_run(params)) + (corrupt_reference ? 1.0 : 0.0);
  w.seq_ref_ms = ref_clock.elapsed_ms();

  w.jobs.push_back({"retina_v2", retina_source(RetinaVersion::kV2Balanced, params),
                    [expected](const delirium::Value& v) -> std::string {
                      const double got = checksum(v.block_as<RetinaModel>());
                      if (got == expected) return "";
                      char buf[96];
                      std::snprintf(buf, sizeof buf, "retina checksum %.17g != sequential %.17g",
                                    got, expected);
                      return buf;
                    }});
  return w;
}

}  // namespace perfbench

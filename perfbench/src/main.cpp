// perfbench: the end-to-end benchmark of the Delirium reproduction.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--revision <text>]
//             [--corrupt-reference]
//
// One client thread runs a closed loop: a pass compiles every job of the
// workload with compile_source, runs it with Runtime::run, and checks the
// result against an independent reference before the next job starts.
// --trace 0 reports the end-to-end metrics; --trace 1 interleaves
// untraced passes with traced ones (pass-by-pass compile spans, a span
// around Runtime::run, timed operator bodies, RunStats counters) and
// reports the per-layer metrics. The last stdout line is one JSON object;
// the exit code is non-zero when any result was wrong.
// See perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/traced.h"
#include "src/core/compiler.h"
#include "src/runtime/runtime.h"

extern char** environ;

namespace perfbench {
namespace {

using delirium::CompiledProgram;
using delirium::CompileResult;
using delirium::OperatorRegistry;
using delirium::RunStats;
using delirium::Runtime;
using delirium::Stopwatch;
using delirium::Value;

constexpr int kSetupRepeats = 5;
// e2e_tail_ms is the median, over groups of kTailGroup consecutive passes,
// of each group's slowest pass: about p87 when passes are independent.
// A run has at least kTailGroups groups.
constexpr size_t kTailGroup = 5;
constexpr size_t kTailGroups = 11;
constexpr int kMinTracedPasses = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_reference = false;
  std::string trace_out;
  std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload corpus_dispatch|table1_compile|"
               "retina_fig1 --seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--revision TEXT] [--corrupt-reference]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      o.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = o.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else if (flag == "--revision") {
        o.revision = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return o;
}

// A kill switch or override changes the program being measured.
void refuse_overrides() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DELIRIUM_", 9) == 0) set.emplace_back(*e);
  }
  if (set.empty()) return;
  std::fprintf(stderr, "perfbench: refusing to run with DELIRIUM_* variables set:\n");
  for (const std::string& s : set) std::fprintf(stderr, "  %s\n", s.c_str());
  std::exit(2);
}

Workload make_workload(const Options& o) {
  if (o.workload == "corpus_dispatch") return make_corpus_dispatch(o.seed, o.corrupt_reference);
  if (o.workload == "table1_compile") return make_table1_compile(o.seed, o.corrupt_reference);
  if (o.workload == "retina_fig1") return make_retina_fig1(o.seed, o.corrupt_reference);
  usage("unknown workload '" + o.workload + "'");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The process's peak resident set (VmHWM). getrusage's ru_maxrss is not
/// used: Linux carries it across exec, so it would report the launching
/// process's peak (about 14 MB under python3) when that is the larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

// ---------------------------------------------------------------------------
// Checked execution of one job
// ---------------------------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void record(const std::string& job, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "perfbench: FAILED %s: %s\n", job.c_str(), error.c_str());
  }
};

std::string check_result(const Job& job, const std::function<Value()>& run) {
  try {
    return job.check(run());
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

/// Final template and node counts of one compiled program.
struct Shape {
  size_t templates = 0;
  size_t nodes = 0;
  bool operator==(const Shape&) const = default;
};

Shape shape_of(const CompiledProgram& p) { return {p.templates.size(), p.total_nodes()}; }

/// Int and float results are kept so the traced pass can compare its
/// result with compile_source's exactly; other kinds (retina's model
/// block) are compared only through the job's own exact check.
Value scalar_or_null(const Value& v) {
  return v.kind() == Value::Kind::kInt || v.kind() == Value::Kind::kFloat ? v : Value::null();
}

bool same_scalar(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  return a.kind() == Value::Kind::kInt ? a.as_int() == b.as_int() : a.as_float() == b.as_float();
}

struct PassSample {
  double e2e_ms = 0, compile_ms = 0, run_ms = 0;
  // Per job, in workload order.
  std::vector<double> job_e2e_ms;
  std::vector<Shape> job_shapes;
  std::vector<Value> job_scalars;  // scalar_or_null of each result
};

/// The set-up the measurement loop runs against: registries, runtimes
/// and inputs. Rebuilt kSetupRepeats times; set-up time is its median.
struct State {
  Workload workload;  // owns the registry, so it outlives both runtimes
  std::unique_ptr<Runtime> runtime;
  // Traced copy (--trace 1 only).
  std::unique_ptr<OpBodyTimers> timers;
  std::unique_ptr<OperatorRegistry> traced_registry;
  std::unique_ptr<Runtime> traced_runtime;
  double construct_ms = 0;
  PassSample warm_up;  // the untraced warm-up pass
};

PassSample untraced_pass(State& s, Tally& tally) {
  PassSample out;
  for (const Job& job : s.workload.jobs) {
    Stopwatch e2e;
    CompileResult compiled = compile_source(job.name + ".dlr", job.source, *s.workload.registry);
    out.compile_ms += e2e.elapsed_ms();
    out.job_shapes.push_back(shape_of(compiled.program));
    Value scalar;
    std::string error;
    if (!compiled.ok) {
      error = "compile failed: " + compiled.diagnostics;
    } else {
      error = check_result(job, [&] {
        Stopwatch run;
        Value v = s.runtime->run(compiled.program);
        out.run_ms += run.elapsed_ms();
        scalar = scalar_or_null(v);
        return v;
      });
    }
    out.job_scalars.push_back(std::move(scalar));
    out.job_e2e_ms.push_back(e2e.elapsed_ms());
    out.e2e_ms += out.job_e2e_ms.back();
    tally.record(job.name, error);
  }
  return out;
}

// Per-layer rows of one traced pass, summed over its jobs.
using Rows = std::map<std::string, double>;

/// `plain` is an untraced pass over the same jobs: its compile_source
/// output is what the traced pipeline must reproduce.
Rows traced_pass(State& s, Tally& tally, SpanRecorder& spans, uint32_t request,
                 const PassSample& plain) {
  Rows r;
  const double workers = s.workload.workers;
  const uint32_t pass_span = spans.begin("pass", 0, request);
  for (size_t j = 0; j < s.workload.jobs.size(); ++j) {
    const Job& job = s.workload.jobs[j];
    const uint64_t op_ns_before = s.timers->total_ns();
    const uint32_t program_span = spans.begin("program:" + job.name, pass_span, request);
    const uint32_t compile_span = spans.begin("compile", program_span, request);
    TracedCompile tc = traced_compile(job.name + ".dlr", job.source, *s.traced_registry, spans,
                                      compile_span, request);
    spans.end(compile_span);
    std::string error;
    double run_ms = 0;
    Value scalar;
    if (!tc.ok) {
      error = "traced compile failed: " + tc.diagnostics;
    } else {
      error = check_result(job, [&] {
        const uint32_t run_span = spans.begin("runtime.run", program_span, request);
        Value v = s.traced_runtime->run(tc.program);
        run_ms = spans.end(run_span);
        scalar = scalar_or_null(v);
        return v;
      });
    }
    r["trace.e2e_ms"] += spans.end(program_span);
    const double op_ns = static_cast<double>(s.timers->total_ns() - op_ns_before);

    // The traced pipeline must build the program compile_source builds
    // and return the same result.
    const Shape traced_shape = shape_of(tc.program);
    const Shape& plain_shape = plain.job_shapes[j];
    const Value& plain_scalar = plain.job_scalars[j];
    if (error.empty() && !(traced_shape == plain_shape)) {
      error = "traced compile differs from compile_source: templates " +
              std::to_string(traced_shape.templates) + " vs " +
              std::to_string(plain_shape.templates) + ", nodes " +
              std::to_string(traced_shape.nodes) + " vs " + std::to_string(plain_shape.nodes);
    } else if (error.empty() && !plain_scalar.is_null() && !same_scalar(scalar, plain_scalar)) {
      error = "traced result " + scalar.to_display_string() + " differs from compile_source's " +
              plain_scalar.to_display_string();
    }
    tally.record(job.name + " (traced)", error);

    const PassRows& p = tc.rows;
    r["lang.lex_ms"] += p.lex_ms;
    r["lang.parse_ms"] += p.parse_ms;
    r["lang.macro_ms"] += p.macro_ms;
    r["lang.tokens"] += static_cast<double>(tc.tokens);
    r["sema.env_ms"] += p.env_ms;
    r["opt.ast_opt_ms"] += p.ast_opt_ms;
    r["opt.ast_nodes"] += static_cast<double>(tc.ast_nodes);
    r["opt.constants_folded"] += tc.opt_stats.constants_folded;
    r["graph.build_ms"] += p.graph_build_ms;
    r["graph.nodes_built"] += static_cast<double>(tc.nodes_built);
    r["graph.templates"] += static_cast<double>(tc.templates_built);
    r["analysis.graph_opt_ms"] += p.graph_opt_ms;
    r["analysis.sched_hints_ms"] += p.sched_hints_ms;
    r["analysis.sole_consumer_ms"] += p.sole_consumer_ms;
    r["analysis.nodes_final"] += static_cast<double>(tc.program.total_nodes());
    r["analysis.consts_folded"] += static_cast<double>(tc.graph_opt_stats.consts_folded);
    r["analysis.chains_fused"] += static_cast<double>(tc.graph_opt_stats.chains_fused);
    r["analysis.dead_params_pruned"] += static_cast<double>(tc.graph_opt_stats.dead_params_pruned);
    r["analysis.tuples_elided"] += static_cast<double>(tc.graph_opt_stats.tuples_elided);
    r["pass_rows_ms"] += p.sum();

    const RunStats& st = s.traced_runtime->last_stats();
    r["run_ms"] += run_ms;
    r["op_ns"] += op_ns;
    r["runtime.nodes_executed"] += static_cast<double>(st.nodes_executed);
    r["runtime.activations_created"] += static_cast<double>(st.activations_created);
    r["pooled"] += static_cast<double>(st.activations_pooled);
    r["allocated"] += static_cast<double>(st.activations_allocated);
    r["runtime.peak_live_activations"] =
        std::max(r["runtime.peak_live_activations"], static_cast<double>(st.peak_live_activations));
    r["runtime.injected_enqueues"] += static_cast<double>(st.sched_injected_enqueues);
    r["runtime.hint_promotions"] += static_cast<double>(st.sched_hint_promotions);
    r["runtime.steals"] += static_cast<double>(st.sched_steals);
    r["failed_steals"] += static_cast<double>(st.sched_failed_steals);
    r["runtime.parks"] += static_cast<double>(st.sched_parks);
    r["runtime.wakeups"] += static_cast<double>(st.sched_wakeups);
    r["runtime.operator_invocations"] += static_cast<double>(st.operator_invocations);
    r["runtime.cow_copies"] += static_cast<double>(st.cow_copies);
    r["runtime.cow_skipped"] += static_cast<double>(st.cow_skipped);
    r["runtime.faults_raised"] += static_cast<double>(st.faults_raised);
    r["runtime.retries"] += static_cast<double>(st.retries);
  }
  spans.end(pass_span);

  // Ratios are formed per pass, then the median is taken across passes.
  const double run_ns = r["run_ms"] * 1e6;
  const double nodes = r["runtime.nodes_executed"];
  r["lang.tokens_per_ms"] = ratio(r["lang.tokens"], r["lang.lex_ms"]);
  r["runtime.ns_per_node"] = ratio(run_ns, nodes);
  r["runtime.non_op_ns_per_node"] = ratio(workers * run_ns - r["op_ns"], nodes);
  r["runtime.activation_pool_hit_ratio"] = ratio(r["pooled"], r["pooled"] + r["allocated"]);
  r["runtime.steal_success_ratio"] =
      ratio(r["runtime.steals"], r["runtime.steals"] + r["failed_steals"]);
  r["runtime.op_body_ms"] = r["op_ns"] / 1e6;
  r["runtime.op_share"] = ratio(r["op_ns"], workers * run_ns);
  return r;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

std::unique_ptr<Runtime> make_runtime(const OperatorRegistry& registry, int workers,
                                      double& construct_ms) {
  Stopwatch clock;
  auto rt = std::make_unique<Runtime>(registry, delirium::RuntimeConfig{.num_workers = workers});
  construct_ms += clock.elapsed_ms();
  return rt;
}

/// Registry build, input generation (with the references), Runtime
/// construction and one warm-up pass; in traced mode also the timed
/// registry copy, its Runtime and a traced warm-up pass.
std::unique_ptr<State> set_up(const Options& o, Tally& tally, SpanRecorder& spans) {
  auto s = std::make_unique<State>();
  s->workload = make_workload(o);
  s->runtime = make_runtime(*s->workload.registry, s->workload.workers, s->construct_ms);
  if (o.trace) {
    s->timers = std::make_unique<OpBodyTimers>(s->workload.workers);
    s->traced_registry = std::make_unique<OperatorRegistry>();
    copy_registry_with_timers(*s->workload.registry, *s->traced_registry, *s->timers);
    s->traced_runtime = make_runtime(*s->traced_registry, s->workload.workers, s->construct_ms);
  }
  s->warm_up = untraced_pass(*s, tally);
  if (o.trace) traced_pass(*s, tally, spans, 0, s->warm_up);
  return s;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(tally.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Chrome trace-event JSON (loads in Perfetto / chrome://tracing), plus
/// the per-worker operator-body aggregates.
void write_trace(const std::string& path, const Options& o, const State& s,
                 const SpanRecorder& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const Span& sp : spans.spans()) {
    out << (first ? "" : ",\n") << "{\"name\": " << json_string(sp.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << json_number(sp.start_ns / 1e3)
        << ", \"dur\": " << json_number((sp.end_ns - sp.start_ns) / 1e3)
        << ", \"args\": {\"id\": " << sp.id << ", \"parent\": " << sp.parent
        << ", \"request\": " << sp.request << "}}";
    first = false;
  }
  out << "\n], \"perfbench\": {\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
      << ", \"workers\": " << s.workload.workers << ", \"op_bodies_per_worker\": [";
  for (size_t w = 0; w < s.timers->slots(); ++w) {
    out << (w ? ", " : "") << "{\"worker\": "
        << (w + 1 == s.timers->slots() ? std::string("\"outside_pool\"") : std::to_string(w))
        << ", \"count\": " << s.timers->count(w) << ", \"ns\": " << s.timers->ns(w) << "}";
  }
  out << "]}}\n";
}

void print_header(const Options& o, const Workload& w) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d workers=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, w.workers);
  std::printf("# nproc=%u loadavg=%.2f/%.2f/%.2f build=%s compiler=\"%s\" revision=%s\n",
              std::thread::hardware_concurrency(), load[0], load[1], load[2],
              PERFBENCH_BUILD_TYPE, __VERSION__, o.revision.c_str());
}

/// Medians of the repeated set-ups.
struct SetupTimes {
  std::vector<double> setup_s, construct_ms, seq_ref_ms;
};

double error_rate(const Tally& tally) {
  return ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted));
}

/// Every end-to-end metric but setup_s, which run() adds.
std::vector<Metric> measure_end_to_end(const Options& o, State& s, Tally& tally) {
  std::vector<double> e2e, compile, run_ms;
  std::vector<std::vector<double>> per_job(s.workload.jobs.size());
  Stopwatch window;
  while (window.elapsed_ms() < o.seconds * 1e3 || e2e.size() < kTailGroup * kTailGroups) {
    const PassSample p = untraced_pass(s, tally);
    e2e.push_back(p.e2e_ms);
    compile.push_back(p.compile_ms);
    run_ms.push_back(p.run_ms);
    for (size_t j = 0; j < per_job.size(); ++j) per_job[j].push_back(p.job_e2e_ms[j]);
  }
  for (size_t j = 0; j < per_job.size(); ++j) {
    std::printf("# job %-12s e2e median %.3f ms\n", s.workload.jobs[j].name.c_str(),
                median(per_job[j]));
  }
  // A burst of host load slows a stretch of consecutive passes. It fills
  // the top of the pooled distribution, so a high percentile of all
  // passes moves with it; it changes only the few groups it falls in, so
  // the median of the group maxima does not.
  std::vector<double> group_max;
  for (size_t i = 0; i + kTailGroup <= e2e.size(); i += kTailGroup) {
    group_max.push_back(*std::max_element(e2e.begin() + i, e2e.begin() + i + kTailGroup));
  }
  const double tail = median(group_max);
  const size_t beyond =
      std::count_if(e2e.begin(), e2e.end(), [tail](double x) { return x >= tail; });
  std::printf("# passes=%zu jobs_per_pass=%zu e2e_tail_ms=median of %zu maxima of %zu "
              "consecutive passes, p%.1f of all passes (%zu at or beyond it)\n",
              e2e.size(), s.workload.jobs.size(), group_max.size(), kTailGroup,
              100.0 * static_cast<double>(e2e.size() - beyond) / e2e.size(), beyond);
  return {
      {"e2e_p50_ms", median(e2e), "ms"},
      {"e2e_tail_ms", tail, "ms"},
      {"compile_ms", median(compile), "ms"},
      {"run_ms", median(run_ms), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Every per-layer metric but the set-up rows and error_rate, which
/// run() adds. `untraced_run_ms` receives the untraced passes' median
/// run_ms.
std::vector<Metric> measure_per_layer(const Options& o, State& s, Tally& tally,
                                      SpanRecorder& spans, double& untraced_run_ms) {
  std::vector<Rows> traced;
  std::vector<double> untraced_e2e, untraced_compile, untraced_run;
  // The traced pass is compared with the latest untraced one. The two
  // alternate which goes first, so neither always inherits the other's
  // warm heap and caches.
  PassSample plain = s.warm_up;
  uint32_t request = 1;
  Stopwatch window;
  auto run_untraced = [&] {
    plain = untraced_pass(s, tally);
    untraced_e2e.push_back(plain.e2e_ms);
    untraced_compile.push_back(plain.compile_ms);
    untraced_run.push_back(plain.run_ms);
  };
  while (window.elapsed_ms() < o.seconds * 1e3 || traced.size() < kMinTracedPasses) {
    const bool traced_first = request % 2 == 0;
    if (!traced_first) run_untraced();
    traced.push_back(traced_pass(s, tally, spans, request++, plain));
    if (traced_first) run_untraced();
  }
  std::printf("# traced passes=%zu untraced passes=%zu (interleaved)\n", traced.size(),
              untraced_e2e.size());
  auto row = [&traced](const std::string& key) {
    std::vector<double> v;
    for (const Rows& r : traced) v.push_back(r.at(key));
    return median(v);
  };
  const char* kRows[][2] = {
      {"lang.lex_ms", "ms"}, {"lang.parse_ms", "ms"}, {"lang.macro_ms", "ms"},
      {"lang.tokens", "count"}, {"lang.tokens_per_ms", "tokens/ms"}, {"sema.env_ms", "ms"},
      {"opt.ast_opt_ms", "ms"}, {"opt.ast_nodes", "count"}, {"opt.constants_folded", "count"},
      {"graph.build_ms", "ms"}, {"graph.nodes_built", "count"}, {"graph.templates", "count"},
      {"analysis.graph_opt_ms", "ms"}, {"analysis.sched_hints_ms", "ms"},
      {"analysis.sole_consumer_ms", "ms"}, {"analysis.nodes_final", "count"},
      {"analysis.consts_folded", "count"}, {"analysis.chains_fused", "count"},
      {"analysis.dead_params_pruned", "count"}, {"analysis.tuples_elided", "count"},
      {"runtime.ns_per_node", "ns/node"}, {"runtime.non_op_ns_per_node", "ns/node"},
      {"runtime.nodes_executed", "count"}, {"runtime.activations_created", "count"},
      {"runtime.activation_pool_hit_ratio", "ratio"},
      {"runtime.peak_live_activations", "count"}, {"runtime.injected_enqueues", "count"},
      {"runtime.hint_promotions", "count"}, {"runtime.steals", "count"},
      {"runtime.steal_success_ratio", "ratio"}, {"runtime.parks", "count"},
      {"runtime.wakeups", "count"}, {"runtime.op_body_ms", "ms"},
      {"runtime.operator_invocations", "count"}, {"runtime.op_share", "ratio"},
      {"runtime.cow_copies", "count"}, {"runtime.cow_skipped", "count"},
      {"runtime.faults_raised", "count"}, {"runtime.retries", "count"},
  };
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kRows) metrics.push_back({name, row(name), unit});
  // compile_source as the untraced passes measure it, and the part of it
  // the traced pass rows do not cover.
  const double core_ms = median(untraced_compile);
  metrics.push_back({"core.compile_ms", core_ms, "ms"});
  metrics.push_back({"core.unattributed_ms", core_ms - row("pass_rows_ms"), "ms"});
  untraced_run_ms = median(untraced_run);
  metrics.push_back(
      {"trace.overhead_ratio", ratio(row("trace.e2e_ms"), median(untraced_e2e)), "ratio"});
  return metrics;
}

int run(const Options& o) {
  Tally tally;
  SpanRecorder spans;

  SetupTimes setup;
  auto timed_set_up = [&] {
    Stopwatch clock;
    std::unique_ptr<State> s = set_up(o, tally, spans);
    setup.setup_s.push_back(clock.elapsed_ms() / 1e3);
    setup.construct_ms.push_back(s->construct_ms);
    setup.seq_ref_ms.push_back(s->workload.seq_ref_ms);
    return s;
  };

  // Set-up runs kSetupRepeats times, but only the first is measured
  // against; the rest run after the measurement. So peak_rss_mb covers
  // one set-up and the measured passes, as one use of the system would.
  // Set-ups repeated beforehand would leave their freed blocks in
  // glibc's arenas and add a run-dependent 5-10 MB to retina_fig1's peak.
  std::unique_ptr<State> state = timed_set_up();
  print_header(o, state->workload);
  double untraced_run_ms = 0;
  std::vector<Metric> metrics = o.trace
                                    ? measure_per_layer(o, *state, tally, spans, untraced_run_ms)
                                    : measure_end_to_end(o, *state, tally);
  if (o.trace && !o.trace_out.empty()) {
    write_trace(o.trace_out, o, *state, spans);
    std::printf("# trace written to %s (%zu spans)\n", o.trace_out.c_str(), spans.spans().size());
  }
  state.reset();
  for (int i = 1; i < kSetupRepeats; ++i) timed_set_up();

  if (!o.trace) {
    metrics.push_back({"setup_s", median(setup.setup_s), "s"});
  } else {
    const double seq_ms = median(setup.seq_ref_ms);
    metrics.push_back({"runtime.seq_ref_ms", seq_ms, "ms"});
    metrics.push_back({"runtime.speedup_vs_seq", ratio(seq_ms, untraced_run_ms), "ratio"});
    metrics.push_back({"runtime.construct_ms", median(setup.construct_ms), "ms"});
    metrics.push_back({"error_rate", error_rate(tally), "ratio"});
  }
  std::printf("# error_rate=%.6g (%llu of %llu programs failed)\n", error_rate(tally),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse_args(argc, argv);
  perfbench::refuse_overrides();
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to measure a build without NDEBUG (compile_source would run "
               "the graph verifier inside compile_ms)\n");
  return 2;
#endif
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

#include "src/runtime/sim.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "src/support/clock.h"

namespace delirium {

namespace {
constexpr Ticks kNever = std::numeric_limits<Ticks>::max();
}  // namespace

/// The virtual MachineModel: a discrete-event P-processor simulator
/// plugged into the shared ExecutorCore. One Impl per run.
struct SimRuntime::Impl : ExecutorCore<SimRuntime::Impl> {
  // Re-exposed for SimRuntime::run_function's faulting-run snapshot.
  using ExecutorCore<SimRuntime::Impl>::snapshot_core_stats;

  struct ReadyItem {
    std::shared_ptr<Activation> act;
    uint32_t node = 0;
    Ticks ready = 0;
    uint64_t seq = 0;      // FIFO within a priority level
    int priority = 0;
    int preferred = -1;    // affinity target processor
  };

  /// Per-instance state, pointed to by Activation::run. A plain run is a
  /// batch of one (id 0, no budgets), which keeps the single-instance
  /// path byte-identical — there is exactly one code path.
  struct SimInstance {
    uint64_t id = 0;  // 1-based in batch mode; 0 = plain single run
    std::string program_name;
    Ticks arrival = 0;
    uint64_t max_activations = 0;  // 0 = unlimited
    int64_t time_budget_ns = 0;    // virtual ns from arrival; 0 = none

    // Fault handling (docs/ROBUSTNESS.md): capture/retry is the core's;
    // this machine adds virtual-time backoff and the budgets. All state
    // is instance-scoped, which is the whole containment story: a fault
    // or budget kill cancels only this instance's queued work.
    std::vector<FaultInfo> faults;
    bool cancelled = false;
    bool budget_fired = false;
    std::string budget_message;
    uint64_t activations = 0;
    bool have_result = false;
    Value result;
    Ticks finish = 0;      // when the final result was delivered
    Ticks last_event = 0;  // end of the last executed item
    std::string spawn_error;
    /// Held until outcomes are assembled so budget/deadlock dumps can
    /// still walk the stranded activation tree.
    std::shared_ptr<Activation> root;
  };

  SimConfig config;

  // (The pool, counters and live-activation ledger live in the base
  // subobject, which outlives every member — so activations still queued
  // here when a run aborts unlink safely.)
  std::vector<ReadyItem> ready;  // unsorted; selection scans (small queues)
  std::vector<Ticks> proc_avail;
  std::vector<Ticks> proc_busy;
  uint64_t next_seq = 0;
  std::vector<NodeTiming> timings;

  /// Some instance was cancelled with work possibly queued: the drive
  /// loop sweeps the ready queue (in queue order, so purge traces are
  /// deterministic) before the next selection.
  bool purge_pending = false;
  bool watchdog_fired = false;  // the *global* virtual watchdog
  std::string watchdog_message;
  std::vector<std::unique_ptr<SimInstance>> instances;

  // Tracing (tracing.h): same kinds, same per-kind arg meanings, exact
  // virtual timestamps, one growable vector (single-threaded — no rings
  // needed, trace_capacity is ignored). Sequence numbers are the record
  // order.
  std::vector<TraceEvent> trace;
  uint64_t trace_seq = 0;
  bool tracing = false;

  std::vector<int> op_last_proc;  // operator-affinity memory
  std::unordered_map<std::string, size_t> op_occurrence;  // for cost replay
  std::vector<uint32_t> domain_rr;  // per-domain RR cursor (deterministic)

  Impl(const OperatorRegistry& r, const SimConfig& c)
      : ExecutorCore<SimRuntime::Impl>(r), config(c) {
    init_exec(&config, /*owner_shards=*/1);
    proc_avail.assign(config.num_procs, 0);
    proc_busy.assign(config.num_procs, 0);
    if (topology().num_domains > 1) {
      domain_rr.assign(static_cast<size_t>(topology().num_domains), 0);
    }
  }

  void trace_event(Ticks ts, int proc, TraceEventKind kind, int32_t op = -1,
                   int64_t arg = 0) {
    if (!tracing) return;
    TraceEvent e;
    e.ts = ts;
    e.seq = trace_seq++;
    e.arg = arg;
    e.op = op;
    e.worker = static_cast<int16_t>(proc);
    e.kind = kind;
    trace.push_back(e);
  }

  void record_fault(SimInstance* si, FaultInfo f, Ticks ts = 0, int proc = -1,
                    int32_t op_index = -1) {
    counters_.faults_raised.fetch_add(1, std::memory_order_relaxed);
    trace_event(ts, proc, TraceEventKind::kFaultRaise, op_index,
                static_cast<int64_t>(f.seq));
    si->faults.push_back(std::move(f));
    if (config.fail_fast) {
      si->cancelled = true;
      purge_pending = true;
    }
  }

  /// Stranded dump over all live activations (`filter` null) or one
  /// instance's. Batch-mode entries are attributed to their instance.
  std::vector<StrandedActivation> collect_stranded(const SimInstance* filter = nullptr) {
    std::vector<StrandedActivation> out;
    for_each_live_activation([&](const Activation& a) {
      const SimInstance* si = static_cast<const SimInstance*>(a.run);
      if (filter != nullptr && si != filter) return;
      const size_t before = out.size();
      append_stranded(a, out);
      if (si->id != 0) {
        for (size_t i = before; i < out.size(); ++i) {
          out[i].instance = si->id;
          out[i].program = si->program_name;
        }
      }
    });
    return out;
  }

  std::string instance_text(const SimInstance& si) const {
    return " (instance " + std::to_string(si.id) + ": '" + si.program_name + "')";
  }

  // -- MachineModel hooks (called by ExecutorCore) ---------------------------

  static constexpr bool kVirtualTime = true;

  Ticks node_base_cost() { return config.node_overhead_ns; }

  void enqueue_ready(const std::shared_ptr<Activation>& act, uint32_t node, Ticks when) {
    const Node& n = act->tmpl->nodes[node];
    // Mirror the threaded scheduler's counter schema: the simulator has
    // one virtual ready queue, so every enqueue is "local" and the
    // steal/park/wakeup counters stay zero.
    counters_.add(0, &StatShard::sched_local_enqueues);
    ReadyItem item;
    item.act = act;
    item.node = node;
    item.ready = when;
    item.seq = next_seq++;
    item.priority = queue_level(n, 0);
    item.preferred = affinity_preference(*act, n);
    ready.push_back(std::move(item));
  }

  void deliver_final(void* run, Value v, Ticks when) {
    SimInstance* si = static_cast<SimInstance*>(run);
    si->result = std::move(v);
    si->have_result = true;
    si->finish = when;
  }

  void trace_from_core(int proc, Ticks ts, TraceEventKind kind, int32_t op, int64_t arg) {
    trace_event(ts, proc, kind, op, arg);
  }

  void record_fault_from_core(void* run, FaultInfo f, int32_t op_index, Ticks ts,
                              int proc) {
    record_fault(static_cast<SimInstance*>(run), std::move(f), ts, proc, op_index);
  }

  // Virtual NUMA pulls, injected stalls, and retry backoff are all
  // charged to the virtual clock instead of spun/slept — deterministic
  // and exact: the simulator charges precisely the topology's per-KiB +
  // migration penalty, whatever the domain pair.
  void charge_remote(int /*domain_from*/, int /*domain_to*/, int64_t /*bytes*/,
                     Ticks penalty_ns, Ticks& cost) {
    cost += penalty_ns;
  }
  void charge_stall(Ticks ns, Ticks& cost) { cost += ns; }
  void charge_backoff(Ticks ns, Ticks& cost) { cost += ns; }

  int pick_worker_in_domain(int domain, int home_worker) {
    // Same striping rule as Runtime::pick_worker_in_domain, but with a
    // plain cursor: the simulator is single-threaded, so placement stays
    // deterministic across runs.
    const int domains = topology().num_domains;
    if (domain < 0 || domains <= 1 || domain >= domains) return home_worker;
    const int members = (config.num_procs - domain + domains - 1) / domains;
    if (members <= 1) return home_worker;
    const uint32_t k = domain_rr[static_cast<size_t>(domain)]++;
    return domain + static_cast<int>(k % static_cast<uint32_t>(members)) * domains;
  }

  // No wall-clock watchdog here (the virtual one lives in the run loop).
  void busy_begin(int /*proc*/, const OperatorDef& /*def*/) {}
  void busy_end(int /*proc*/) {}

  // Operators always run under the cost clock: their measured (or
  // replayed) wall time *is* the virtual cost model.
  Ticks op_clock_begin() { return now_ticks(); }

  void op_note_success(Ticks t0, const OperatorDef& def, const Activation& act, int proc,
                       Ticks virtual_start, uint64_t occurrence, Ticks& cost) {
    Ticks measured = now_ticks() - t0;
    if (config.record_costs != nullptr) {
      config.record_costs->per_op[def.info.name].push_back(measured);
    }
    if (config.fixed_costs != nullptr) {
      const auto it = config.fixed_costs->find(def.info.name);
      measured = it != config.fixed_costs->end() ? it->second : config.fixed_cost_default_ns;
    } else if (config.replay_costs != nullptr) {
      auto it = config.replay_costs->per_op.find(def.info.name);
      if (it != config.replay_costs->per_op.end() && occurrence < it->second.size()) {
        measured = it->second[occurrence];
      }
    }
    cost += measured;
    counters_.operator_ticks.fetch_add(measured, std::memory_order_relaxed);
    if (config.enable_node_timing) {
      timings.push_back(NodeTiming{def.info.name, act.tmpl->name, measured, proc,
                                   static_cast<uint64_t>(timings.size()), virtual_start});
    }
  }

  uint64_t op_arrival(const OperatorDef& def, int /*op_index*/, bool /*has_plan*/) {
    // Counted unconditionally (unlike the threaded runtime): cost replay
    // needs the occurrence index even with no injection plan.
    return op_occurrence[def.info.name]++;
  }

  int last_affinity_worker(int op_index) {
    return op_last_proc.size() > static_cast<size_t>(op_index) ? op_last_proc[op_index]
                                                              : -1;
  }

  void note_affinity(int op_index, int proc) {
    if (op_last_proc.size() <= static_cast<size_t>(op_index)) {
      op_last_proc.resize(registry_.size(), -1);
    }
    op_last_proc[op_index] = proc;
  }

  // One thread drives the whole virtual machine: a single stat and
  // ledger shard, written with plain loads and stores.
  int shard_of(int /*proc*/) const { return 0; }
  int current_shard() const { return 0; }

  void on_activation_created(Activation* act) {
    // Per-instance activation budget, counted only when something could
    // consume it (a budget is set, or a batch instance reports the
    // count). The trip message matches the threaded runtime's byte for
    // byte — the activation count is schedule-independent.
    SimInstance* si = static_cast<SimInstance*>(act->run);
    if (si->id == 0 && si->max_activations == 0) return;
    ++si->activations;
    if (si->max_activations > 0 && si->activations > si->max_activations &&
        !si->budget_fired) {
      si->budget_fired = true;
      si->budget_message = "instance budget: activation count exceeded " +
                           std::to_string(si->max_activations) + instance_text(*si) +
                           "; cancelling instance";
      si->cancelled = true;
      purge_pending = true;
    }
  }

  // -- Discrete-event scheduler ----------------------------------------------

  /// Pick the next (processor, item) pair under the ready-queue policy and
  /// remove the item from the queue. Returns false when nothing is ready.
  bool select(int& proc_out, size_t& item_out, Ticks& start_out) {
    if (ready.empty()) return false;
    // Earliest-free processor; if it would idle past the earliest ready
    // time, it starts then.
    int p = 0;
    for (int i = 1; i < config.num_procs; ++i) {
      if (proc_avail[i] < proc_avail[p]) p = i;
    }
    Ticks t = proc_avail[p];
    Ticks min_ready = kNever;
    for (const ReadyItem& item : ready) min_ready = std::min(min_ready, item.ready);
    t = std::max(t, min_ready);

    // Among items ready at <= t: priority level first; within a level,
    // prefer items bound to this processor, then unbound, then steal —
    // FIFO inside each class. Mirrors Runtime's pop order. Under a
    // multi-domain topology with locality_scheduling the class ladder
    // grows a rung: bound-here, bound-same-domain, unbound, bound-
    // elsewhere — the virtual twin of Runtime's domain-aware steal scan.
    // The three-class ranking is kept verbatim otherwise, so default,
    // UMA, and legacy-flat schedules stay byte-identical.
    const bool domain_aware =
        exec_config().locality_scheduling && topology().num_domains > 1;
    const int p_domain = domain_aware ? topology().domain_of(p) : -1;
    size_t best = ready.size();
    int best_rank = std::numeric_limits<int>::max();
    uint64_t best_seq = std::numeric_limits<uint64_t>::max();
    for (size_t i = 0; i < ready.size(); ++i) {
      const ReadyItem& item = ready[i];
      if (item.ready > t) continue;
      int rank;
      if (domain_aware) {
        int affinity_class = 2;  // unbound
        if (item.preferred == p) affinity_class = 0;
        else if (item.preferred >= 0 &&
                 topology().domain_of(item.preferred) == p_domain) affinity_class = 1;
        else if (item.preferred >= 0) affinity_class = 3;
        rank = item.priority * 4 + affinity_class;
      } else {
        int affinity_class = 1;  // unbound
        if (item.preferred == p) affinity_class = 0;
        else if (item.preferred >= 0) affinity_class = 2;
        rank = item.priority * 3 + affinity_class;
      }
      if (rank < best_rank || (rank == best_rank && item.seq < best_seq)) {
        best = i;
        best_rank = rank;
        best_seq = item.seq;
      }
    }
    if (best == ready.size()) return false;  // defensive; cannot happen
    proc_out = p;
    item_out = best;
    start_out = t;
    return true;
  }

  /// The discrete-event loop, shared by the single-run path and the
  /// batch path. Runs until nothing is ready (all instances drained or
  /// purged).
  void drive() {
    while (true) {
      if (purge_pending) {
        // An instance was cancelled (fail_fast fault, budget, watchdog):
        // sweep its queued items, in queue order so the purge trace is
        // deterministic. Siblings' items are untouched — this sweep *is*
        // the fault-containment boundary.
        purge_pending = false;
        size_t keep = 0;
        for (size_t i = 0; i < ready.size(); ++i) {
          ReadyItem& it = ready[i];
          if (static_cast<SimInstance*>(it.act->run)->cancelled) {
            counters_.items_purged.fetch_add(1, std::memory_order_relaxed);
            if (tracing) {
              const Node& n = it.act->tmpl->nodes[it.node];
              trace_event(it.ready, -1, TraceEventKind::kPurge,
                          n.kind == NodeKind::kOperator ? n.op_index : -1);
            }
          } else {
            if (keep != i) ready[keep] = std::move(ready[i]);
            ++keep;
          }
        }
        ready.resize(keep);
        continue;
      }
      int proc;
      size_t index;
      Ticks start;
      if (!select(proc, index, start)) break;
      // Virtual-time watchdog: work would start past the *global* budget
      // with no result delivered — fully deterministic, unlike
      // wall-clock stall detection in the threaded runtime. Cancels
      // every instance (per-instance ceilings are time_budget_ns).
      if (config.watchdog_budget_ns > 0 && !watchdog_fired &&
          start > config.watchdog_budget_ns) {
        watchdog_fired = true;
        counters_.watchdog_fires.fetch_add(1, std::memory_order_relaxed);
        trace_event(config.watchdog_budget_ns, -1, TraceEventKind::kWatchdog, -1,
                    config.watchdog_budget_ns);
        watchdog_message =
            build_watchdog_message(std::to_string(config.watchdog_budget_ns) + " virtual ns",
                                   "", render_stranded(collect_stranded()));
        for (auto& si : instances) si->cancelled = true;
        purge_pending = true;
        continue;
      }
      SimInstance* si = static_cast<SimInstance*>(ready[index].act->run);
      // Per-instance virtual deadline: this instance's next work would
      // start past its ceiling. Reported as a structured stall, never an
      // exception, and never visible to siblings.
      if (si->time_budget_ns > 0 && !si->budget_fired &&
          start > si->arrival + si->time_budget_ns) {
        si->budget_fired = true;
        si->budget_message =
            "instance budget: no result within " + std::to_string(si->time_budget_ns) +
            " virtual ns" + instance_text(*si) + "; cancelling instance\n" +
            "stranded activations:\n" + render_stranded(collect_stranded(si));
        si->cancelled = true;
        purge_pending = true;
        continue;  // the sweep collects the selected item too
      }
      ReadyItem item = std::move(ready[index]);
      ready.erase(ready.begin() + static_cast<long>(index));
      Ticks cost = config.node_overhead_ns;
      try {
        cost = execute_node(item.act, item.node, proc, start);
      } catch (...) {
        // Coordination-level failure (operator faults are captured with
        // richer context inside the core's kOperator case).
        const Node& n = item.act->tmpl->nodes[item.node];
        record_fault(si, make_fault(*item.act, item.node, std::current_exception()),
                     start, proc, n.kind == NodeKind::kOperator ? n.op_index : -1);
      }
      proc_avail[proc] = start + cost;
      proc_busy[proc] += cost;
      si->last_event = std::max(si->last_event, start + cost);
    }
  }

  SimResult run(const CompiledProgram& prog, const Template* tmpl, std::vector<Value> args) {
    tracing = config.enable_tracing;
    resolve_run_policy();

    // A plain run is a batch of one (id 0: no budgets, no dump
    // annotation), so the single-instance path *is* the instance path.
    instances.push_back(std::make_unique<SimInstance>());
    SimInstance& si = *instances.back();
    // The root shared_ptr is held across the drain so the deadlock and
    // watchdog diagnostics can walk the stranded activation tree.
    si.root = spawn(&prog, tmpl, std::move(args), nullptr, 0, fault_seq_root(), 0, &si);
    drive();

    // Drain-time error selection: identical to Runtime::run_function —
    // the smallest deterministic sequence id wins, and a fault beats a
    // delivered result.
    const int best = smallest_fault_index(si.faults);
    if (best >= 0) throw FaultError(std::move(si.faults[static_cast<size_t>(best)]));
    if (watchdog_fired) throw RuntimeError(watchdog_message);
    if (!si.have_result) {
      throw RuntimeError(
          build_deadlock_message(/*simulated=*/true, render_stranded(collect_stranded())));
    }
    SimResult result;
    result.result = std::move(si.result);
    result.makespan = si.finish;
    for (Ticks b : proc_busy) result.total_busy += b;
    result.proc_busy = proc_busy;
    snapshot_core_stats(result.stats);
    result.timings = std::move(timings);
    result.trace_events = trace;  // Impl keeps its copy for faulting-run retrieval
    return result;
  }

  SimBatchResult run_batch(const std::vector<SimInstanceRequest>& requests) {
    tracing = config.enable_tracing;
    resolve_run_policy();

    instances.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const SimInstanceRequest& req = requests[i];
      instances.push_back(std::make_unique<SimInstance>());
      SimInstance& si = *instances.back();
      si.id = i + 1;
      si.arrival = req.arrival;
      si.max_activations = req.max_activations;
      si.time_budget_ns = req.time_budget_ns;
      counters_.instances_admitted.fetch_add(1, std::memory_order_relaxed);
      try {
        if (req.program == nullptr) throw RuntimeError("instance has no program");
        si.program_name = req.function.empty() ? req.program->entry_template().name
                                               : req.function;
        const Template* tmpl = req.program->find(si.program_name);
        if (tmpl == nullptr) {
          throw RuntimeError("program has no function named '" + si.program_name + "'");
        }
        // Every root shares fault_seq_root(), so an instance's fault
        // reports are byte-identical to its solo run.
        si.root = spawn(req.program, tmpl, std::vector<Value>(req.args), nullptr, 0,
                        fault_seq_root(), req.arrival, &si);
      } catch (const std::exception& e) {
        si.spawn_error = e.what();
        si.cancelled = true;
        purge_pending = true;
      }
    }
    drive();

    SimBatchResult out;
    out.outcomes.resize(instances.size());
    for (size_t i = 0; i < instances.size(); ++i) {
      SimInstance& si = *instances[i];
      SimInstanceOutcome& o = out.outcomes[i];
      o.activations = si.activations;
      o.finish = si.have_result ? si.finish : std::max(si.last_event, si.arrival);
      o.latency = o.finish - si.arrival;
      const int best = smallest_fault_index(si.faults);
      if (si.budget_fired) {
        o.budget_exceeded = true;
        o.message = si.budget_message;
        counters_.instances_budget_killed.fetch_add(1, std::memory_order_relaxed);
      } else if (best >= 0) {
        o.have_fault = true;
        o.fault = std::move(si.faults[static_cast<size_t>(best)]);
        o.message = o.fault.render();
        counters_.instances_faulted.fetch_add(1, std::memory_order_relaxed);
      } else if (!si.spawn_error.empty()) {
        o.message = si.spawn_error;
        counters_.instances_faulted.fetch_add(1, std::memory_order_relaxed);
      } else if (si.have_result) {
        o.have_value = true;
        o.value = std::move(si.result);
        counters_.instances_completed.fetch_add(1, std::memory_order_relaxed);
      } else if (watchdog_fired) {
        o.message = watchdog_message;
        counters_.instances_faulted.fetch_add(1, std::memory_order_relaxed);
      } else {
        o.message = build_deadlock_message(/*simulated=*/true,
                                           render_stranded(collect_stranded(&si)));
        counters_.instances_faulted.fetch_add(1, std::memory_order_relaxed);
      }
      out.makespan = std::max(out.makespan, o.finish);
    }
    for (auto& si : instances) si->root.reset();
    snapshot_core_stats(out.stats);
    return out;
  }
};

SimConfig SimConfig::sharded_cluster(int procs_per_shard) {
  SimConfig config;
  config.topology = MemoryTopology::cluster();
  config.num_procs = config.topology.num_domains * std::max(procs_per_shard, 1);
  return config;
}

SimRuntime::SimRuntime(const OperatorRegistry& registry, SimConfig config)
    : registry_(registry), config_(config) {
  if (config_.num_procs <= 0) config_.num_procs = 1;
  // Same environment overrides as the threaded runtime.
  apply_exec_env_overrides(config_);
}

SimResult SimRuntime::run(const CompiledProgram& program, std::vector<Value> args) {
  return run_function(program, program.entry_template().name, std::move(args));
}

SimBatchResult SimRuntime::run_instances(const std::vector<SimInstanceRequest>& requests) {
  Impl impl(registry_, config_);
  SimBatchResult result = impl.run_batch(requests);
  last_trace_ = impl.trace;
  last_stats_ = result.stats;
  return result;
}

SimResult SimRuntime::run_function(const CompiledProgram& program, const std::string& name,
                                   std::vector<Value> args) {
  const Template* tmpl = program.find(name);
  if (tmpl == nullptr) {
    throw RuntimeError("program has no function named '" + name + "'");
  }
  Impl impl(registry_, config_);
  try {
    SimResult result = impl.run(program, tmpl, std::move(args));
    last_trace_ = result.trace_events;
    last_stats_ = result.stats;
    return result;
  } catch (...) {
    // Keep the trace and counters reachable across a faulting run, like
    // Runtime::trace_events() / Runtime::last_stats().
    last_trace_ = std::move(impl.trace);
    impl.snapshot_core_stats(last_stats_);
    throw;
  }
}

CostTable calibrate_costs(const OperatorRegistry& registry, const CompiledProgram& program,
                          int runs) {
  std::vector<CostTable> samples(std::max(runs, 1));
  for (CostTable& table : samples) {
    SimConfig config;
    config.num_procs = 1;
    config.record_costs = &table;
    SimRuntime sim(registry, config);
    sim.run(program);
  }
  // Per-invocation median across the calibration runs.
  CostTable merged;
  for (const auto& [op, costs] : samples[0].per_op) {
    std::vector<Ticks>& out = merged.per_op[op];
    out.resize(costs.size());
    for (size_t i = 0; i < costs.size(); ++i) {
      std::vector<Ticks> values;
      values.reserve(samples.size());
      for (const CostTable& table : samples) {
        auto it = table.per_op.find(op);
        if (it != table.per_op.end() && i < it->second.size()) values.push_back(it->second[i]);
      }
      std::sort(values.begin(), values.end());
      out[i] = values.empty() ? 0 : values[values.size() / 2];
    }
  }
  return merged;
}

}  // namespace delirium

// Low-overhead event tracing shared by Runtime and SimRuntime — the
// §1 "tools for analyzing and improving execution speed", upgraded from
// per-node durations to a real event timeline (docs/OBSERVABILITY.md).
//
// Each worker records into its own fixed-capacity ring buffer with no
// locks and no atomics on the recording path; a global relaxed counter
// stamps every event with a sequence number so the merged stream has one
// deterministic order regardless of which ring an event landed in. The
// threaded runtime records wall-clock nanoseconds relative to the run
// start; SimRuntime records exact virtual nanoseconds under the same
// schema, so the same exporters serve both executors.
//
// Soundness of the lock-free design rests on one invariant: a ring is
// written only (a) by its owning worker while it holds a work item's
// outstanding-work token — from the pop to its last run-scoped write
// before it gives the token up, either by the push that hands the token
// to a successor on its own deque or by its decrement of the run's
// outstanding counter (Runtime::publish_successors) — or (b) by the
// run's caller thread, which is also the only reader and reads only
// after the drain observed outstanding == 0. Events a worker would
// otherwise produce while idle (park intervals, dry steal scans) are
// kept in worker-local state and flushed at the next successful pop,
// which restores the invariant without losing the data. See
// docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace delirium {

/// One entry of the trace event stream. Operator and fault events carry
/// the operator's registry index (resolved to a name at export time, so
/// the hot path never touches a string); scheduler events use `arg` for
/// the kind-specific detail documented per enumerator.
enum class TraceEventKind : uint8_t {
  kOpBegin,     // operator attempt starts; arg = attempt number (0-based)
  kOpEnd,       // operator attempt ends (also on a throwing attempt)
  kSteal,       // item taken from a victim's deque; arg = victim worker
  kStealFail,   // full dry scans since the last pop; arg = scan count
  kPark,        // worker slept on its eventcount; arg = sleep duration ns
  kWake,        // notification sent to a parked worker; arg = target
  kInject,      // item pushed into another worker's inbox; arg = target
  kFaultRaise,  // fault captured (after retries were exhausted)
  kRetry,       // faulting operator about to re-run; arg = upcoming attempt
  kPurge,       // queued item discarded by cancellation
  kWatchdog,    // stall detector fired
};

/// Number of TraceEventKind enumerators (for per-kind count tables).
inline constexpr int kNumTraceEventKinds = 11;

/// Stable lower-case name of a kind ("op_begin", "steal", ...), used by
/// every exporter and by the multiset-equivalence helper.
std::string_view trace_event_kind_name(TraceEventKind kind);

struct TraceEvent {
  int64_t ts = 0;        // ns since run start (wall) / virtual ns (sim)
  uint64_t seq = 0;      // global record order; the merge key
  int64_t arg = 0;       // kind-specific detail (see TraceEventKind)
  int32_t op = -1;       // operator registry index, or -1
  int16_t worker = -1;   // recording worker / virtual processor
  TraceEventKind kind = TraceEventKind::kOpBegin;
};

/// Fixed-capacity single-writer ring. When full the oldest events are
/// overwritten (flight-recorder semantics: a bounded trace keeps the
/// most recent window); `overwritten()` reports how many were lost.
/// No internal synchronization — see the file comment for the
/// happens-before discipline that makes reads safe.
class TraceRing {
 public:
  /// Prepare `capacity` slots (rounded up to a power of two, min 16).
  /// Called once, before any recording.
  void init(size_t capacity);

  void push(const TraceEvent& e) {
    buf_[head_ & mask_] = e;
    ++head_;
  }

  void clear() { head_ = 0; }
  size_t size() const { return head_ < buf_.size() ? head_ : buf_.size(); }
  uint64_t overwritten() const { return head_ < buf_.size() ? 0 : head_ - buf_.size(); }

  /// Append the retained events (oldest first) to `out`.
  void collect(std::vector<TraceEvent>& out) const;

 private:
  std::vector<TraceEvent> buf_;
  uint64_t mask_ = 0;
  uint64_t head_ = 0;
};

/// Sort a merged event stream into its global record order.
void sort_trace_events(std::vector<TraceEvent>& events);

/// Default per-worker ring capacity; override with RuntimeConfig::
/// trace_capacity or the DELIRIUM_TRACE_CAPACITY environment variable.
inline constexpr size_t kDefaultTraceCapacity = 1 << 16;

}  // namespace delirium

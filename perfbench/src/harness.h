// Shared pieces of the end-to-end benchmark: clocks, percentiles,
// the span tracer, the periodic input stream with its precomputed delta
// counts, the oracle, and the metric report.
//
// Everything here lives in the benchmark; the engine is driven only
// through its public headers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/tuple.h"
#include "core/logical_plan.h"
#include "engine/engine.h"
#include "exec/replay.h"
#include "workload/lbl_generator.h"

namespace pb {

using upa::Time;
using upa::Tuple;

int64_t NowNs();
/// Sleeps until the steady clock reaches `t_ns`. No busy wait: a spinning
/// generator would take execution resources from the threads it measures
/// (the wake-up delay shows in gen.lag_ms instead).
void SleepUntilNs(int64_t t_ns);
double Seconds(int64_t ns);

/// Weighted samples in a log-scale histogram of 0.5%-wide bins:
/// percentiles to within 0.25%, constant memory and O(1) recording (a
/// growing sample vector would stall the shard threads that record
/// result latencies when it reallocates, and count in peak RSS).
class Samples {
 public:
  void Add(double v, uint64_t weight = 1);
  uint64_t count() const { return total_; }
  bool empty() const { return total_ == 0; }
  /// Percentile p in [0, 100] (nearest rank); 0 when empty.
  double Pct(double p) const;
  double Max() const { return max_; }

 private:
  std::vector<uint64_t> bins_;  ///< Allocated on the first Add.
  uint64_t total_ = 0;
  double max_ = 0.0;
};

double Median(std::vector<double> v);

// --- Tracing (spans recorded by the benchmark's own code only) ---

struct Span {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index into the same thread's spans, -1 = root.
  int64_t batch = -1;   ///< Generator step / batch id, -1 = none.
};

/// One thread's span buffer. Only its owning thread records into it.
class ThreadTrace {
 public:
  ThreadTrace(std::string name, int tid) : name_(std::move(name)), tid_(tid) {}
  int32_t Begin(const char* name, const char* layer, int64_t batch);
  void End(int32_t idx);
  const std::string& name() const { return name_; }
  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string name_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when `t` is null (untraced run or untraced slice).
class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace* t, const char* name, const char* layer,
             int64_t batch = -1)
      : t_(t), idx_(t != nullptr ? t->Begin(name, layer, batch) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* t_;
  int32_t idx_;
};

/// [start, end) intervals of the steady clock.
using Windows = std::vector<std::pair<int64_t, int64_t>>;

/// Tuples and time of one closed-loop slice.
struct Throughput {
  uint64_t tuples = 0;
  int64_t ns = 0;
  void Add(uint64_t t, int64_t d) {
    tuples += t;
    ns += d;
  }
  double Ktps() const {
    return ns > 0 ? static_cast<double>(tuples) / Seconds(ns) / 1e3 : 0.0;
  }
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  /// Registers a thread buffer; null when tracing is off.
  ThreadTrace* Thread(const std::string& name);
  /// Chrome trace-event JSON ("X" events, ts/dur in microseconds).
  bool WriteChrome(const std::string& path) const;
  /// Self time (span minus its children) per layer of the spans of
  /// thread `name` that start inside one of `windows`.
  std::map<std::string, double> SelfNsByLayer(const std::string& name,
                                              const Windows& windows) const;
  /// Root-span time of thread `name` inside `windows`.
  double RootNs(const std::string& name, const Windows& windows) const;

 private:
  const bool on_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
  int64_t origin_ns_ = NowNs();
};

// --- Input: a pre-generated LBL segment replayed with shifted timestamps ---

/// The unbounded input of a workload: position p is event p % n of a
/// generated segment, with its timestamp shifted by (p / n) * period. The
/// segment spans at least one window, so from the second repetition on
/// every window holds the same tuples and every position produces the
/// same results as its counterpart in repetition 1.
class InputStream {
 public:
  InputStream(uint64_t seed, int links, Time period, double zipf);

  uint64_t n() const { return trace_.events.size(); }
  int StreamAt(uint64_t p) const {
    return trace_.events[p % n()].stream;
  }
  Time TsAt(uint64_t p) const {
    return trace_.events[p % n()].tuple.ts +
           static_cast<Time>(p / n()) * period_;
  }
  void TupleAt(uint64_t p, Tuple* out) const;
  /// Highest position whose timestamp is `ts`.
  uint64_t LastPosWithTs(Time ts) const;
  /// The first `count` positions as a trace (the replay input).
  upa::Trace Prefix(uint64_t count) const;
  /// Whether the fields of position p equal t's fields from `offset` on.
  bool FieldsMatch(uint64_t p, const Tuple& t, size_t offset) const;

 private:
  upa::Trace trace_;
  Time period_;
  std::vector<uint32_t> last_idx_by_ts_;  ///< Segment ts (1-based) -> index.
};

/// Exact per-position result counts, precomputed by a single-threaded
/// replay of the first two repetitions and extended periodically.
class ExpectedCounts {
 public:
  void Init(uint64_t n, const std::vector<uint32_t>& pos,
            const std::vector<uint32_t>& neg);
  /// Positive / negative deltas produced by positions [0, p).
  uint64_t Pos(uint64_t p) const { return Cum(cum_pos_, p); }
  uint64_t Neg(uint64_t p) const { return Cum(cum_neg_, p); }

 private:
  uint64_t Cum(const std::vector<uint64_t>& cum, uint64_t p) const;
  uint64_t n_ = 0;
  std::vector<uint64_t> cum_pos_;
  std::vector<uint64_t> cum_neg_;
};

/// The query a workload registers, compiled once more for the benchmark's
/// own use (the replay baseline and the oracle).
struct QuerySpec {
  std::string name;
  std::string sql;
  std::vector<std::string> streams;  ///< Declared in this order.
  Time window = 0;
  /// Compare results on fields only (EXCEPT: which representative tuple
  /// survives is unspecified, see src/ref/reference.h); else fields + exp.
  bool key_only = false;
};

class Report;

struct Precomputed {
  upa::PlanPtr plan;           ///< Compiled against the benchmark catalog.
  ExpectedCounts counts;
  upa::ReplayMetrics replay;   ///< exec.* and state.* come from here.
  upa::UpdatePattern pattern = upa::UpdatePattern::kMonotonic;
};

/// Compiles `q`, replays the first two repetitions of `in` through one
/// single-threaded pipeline (ReplayTrace, the paper's Section 6.1
/// measurement), and records the deltas each position produced.
Precomputed Precompute(const InputStream& in, const QuerySpec& q);

/// Sets the exec.*, ops.* and state.* metrics: exec and state from the
/// precompute replay, ops from the exact counts of `p` ingested tuples.
void SetCommonLayerMetrics(const Precomputed& pre, uint64_t p, uint64_t pos,
                           uint64_t neg, Report* r);

/// Encode + DecodeFrame cost of kIngestBatch frames built from the
/// workload's own tuples, in ns per tuple.
double CodecNsPerTuple(const InputStream& in, uint64_t batch);

/// Order-independent digest of a multiset of result tuples.
struct Digest {
  uint64_t sum = 0;
  uint64_t count = 0;
  bool operator==(const Digest& o) const {
    return sum == o.sum && count == o.count;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};
uint64_t TupleHash(const Tuple& t, bool key_only);
Digest DigestOf(const std::vector<Tuple>& rows, bool key_only);

/// The oracle: src/ref's ReferenceEvaluator over the last two repetitions
/// before `p_end` (they cover the final window), evaluated at the
/// timestamp of position p_end - 1.
Digest OracleDigest(const InputStream& in, const Precomputed& pre,
                    const QuerySpec& q, uint64_t p_end);

// --- Report ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// Records one attempted operation.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Records a failed operation or a failed check (fails the run).
  void Fail(const std::string& what);
  void Note(const std::string& key, const std::string& value);
  bool correct() const { return failed_ == 0; }

  /// Prints the notes and every metric, then, as the last line, the JSON
  /// object restricted to `names`.
  void Print(const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Peak resident set size (VmHWM) of this process in MiB.
double PeakRssMb();

/// Run parameters shared by every workload.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< Chrome traces.
  std::string tmp_dir;  ///< out_dir/tmp: durability directories.
};

/// A rung of the open-loop ladder passes when its p99 latency stays
/// within the limit and the backlog does not grow: the mean backlog over
/// the last fifth of the rung is at most `limit` worth of input, or no
/// larger than over its first fifth.
bool BacklogHeld(const std::vector<std::pair<int64_t, double>>& samples,
                 int64_t start_ns, int64_t end_ns, double rate_tps,
                 double limit_ms);

/// The schedule of the open-loop phase in progress, shared with the
/// threads that timestamp results and sample the backlog. Position p0 is
/// due at t0; later positions follow at the phase's fixed rate.
struct OpenLoop {
  std::atomic<int> bucket{0};  ///< 0 = no open-loop phase running.
  int64_t t0 = 0;
  uint64_t p0 = 0;
  double ns_per_tuple = 0.0;
  std::atomic<uint64_t> sent{0};  ///< Positions sent in this phase.

  int64_t Due(uint64_t p) const {
    return t0 + static_cast<int64_t>(static_cast<double>(p - p0) *
                                     ns_per_tuple);
  }
  /// Arms a phase (generator thread, before sending); the first position
  /// is due 1 ms from now.
  void Start(uint64_t p, double ktps, int b) {
    t0 = NowNs() + 1'000'000;
    p0 = p;
    ns_per_tuple = 1e6 / ktps;
    sent.store(0, std::memory_order_relaxed);
    bucket.store(b, std::memory_order_release);
  }
};

/// Background thread polling Engine::Metrics() every 5 ms: the backlog
/// (summed queue depth of the query plus how far the generator trails
/// its schedule, in tuples) and the cost of Metrics() + ToPrometheus()
/// (timed on every 20th poll, the obs budget guard).
class Sampler {
 public:
  Sampler(upa::Engine* engine, std::string query, const OpenLoop* ol,
          Tracer* tracer);
  ~Sampler() { Stop(); }
  void Start();
  void Stop();

  size_t max_depth() const { return max_depth_.load(); }
  /// (time, backlog) samples taken in [from, to].
  std::vector<std::pair<int64_t, double>> Backlog(int64_t from,
                                                  int64_t to) const;
  Samples obs_ms() const;

 private:
  void Loop();
  upa::Engine* engine_;
  const std::string query_;
  const OpenLoop* ol_;
  Tracer* tracer_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> max_depth_{0};
  size_t exposition_bytes_ = 0;  ///< Keeps the timed rendering observable.
  std::thread thread_;
  mutable std::mutex mu_;
  std::vector<std::pair<int64_t, double>> backlog_;  // Guarded by mu_.
  Samples obs_ms_;                                   // Guarded by mu_.
};

/// One open-loop phase as the generator ran it.
struct OpenResult {
  uint64_t sent = 0;
  int64_t start_ns = 0;
  int64_t send_end_ns = 0;  ///< Scheduled end of sending.
  int64_t last_send_ns = 0;
};

/// What a workload's load generator offers RunPhases.
class LoadGenerator {
 public:
  virtual ~LoadGenerator() = default;
  /// Closed loop for `seconds`, ending at a barrier with every subscriber
  /// in sync; spans and call timings only when `traced`. Returns the
  /// slice's window and adds it to `thr`.
  virtual std::pair<int64_t, int64_t> Closed(double seconds, bool traced,
                                             Throughput* thr) = 0;
  /// Open loop at `ktps` for `seconds`; results are tagged `bucket`; how
  /// late each send was goes to `lag_ms` (may be null). Sending stops when
  /// the time is up even if the generator is behind (an overloaded rung
  /// must not run on).
  virtual OpenResult Open(double ktps, double seconds, int bucket,
                          Samples* lag_ms) = 0;
  /// Per-result latency (ms) of the results tagged `bucket`.
  virtual Samples Latency(int bucket) const = 0;
};

/// A workload's fixed open-loop constants.
struct Schedule {
  double ref_ktps;
  std::vector<double> ladder_ktps;
  double limit_ms;
};

/// Rounds of the measured phase (traced runs alternate untraced and traced
/// closed-loop slices over the same rounds).
constexpr int kRounds = 15;

struct PhaseResults {
  std::vector<double> untraced_ktps, traced_ktps;  ///< Per closed slice.
  Windows traced_windows;
  std::vector<Samples> ref;  ///< Result latency per reference round.
  Samples lag_ms;            ///< Generator lateness, reference rounds.
  double sustained_ktps = 0.0;
};
/// Runs the measured phase: kRounds rounds of [closed slice, reference
/// open-loop sub-phase] (35% + 35% of `seconds`), then the ladder (30%).
/// Interleaving and taking medians over rounds keeps a stretch of noise
/// on a shared machine from moving the run's result. Reference
/// sub-phases use buckets 1..kRounds, rungs the buckets after.
PhaseResults RunPhases(LoadGenerator* d, const Sampler& sampler,
                       const RunArgs& args, const Schedule& s);
/// Median over rounds of each round's percentile `p`.
double MedianPct(const std::vector<Samples>& rounds, double p);
uint64_t TotalCount(const std::vector<Samples>& rounds);

/// Sets the six end-to-end metrics.
void SetEndToEnd(const PhaseResults& ph, double setup_s, double rss_mb,
                 Report* r);

/// Fills the trace.* metrics and writes the Chrome trace. Coverage and
/// self time are shares of the generator thread's wall time in the traced
/// closed-loop slices, where it never idles; the overhead compares their
/// throughput with the untraced slices'.
void ReportTrace(const Tracer& tracer, const RunArgs& args,
                 const PhaseResults& ph, Report* r);

/// Workload entry points (join_skew.cc, wire.cc).
void RunJoinSkew(const RunArgs& args, Report* r);
void RunWireFanout(const RunArgs& args, Report* r);
void RunNegationDurable(const RunArgs& args, Report* r);

}  // namespace pb

#endif  // PERFBENCH_HARNESS_H_

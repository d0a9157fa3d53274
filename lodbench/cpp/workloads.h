#ifndef LODBENCH_WORKLOADS_H_
#define LODBENCH_WORKLOADS_H_

#include <sched.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/engine.h"
#include "exec/thread_pool.h"
#include "http_client.h"
#include "serve/frontend.h"
#include "serve/server.h"
#include "storage/disk_source_adapter.h"
#include "storage/disk_triple_store.h"

namespace lodbench {

enum class Workload { kServeMemViews, kServeDiskLookups, kExploreSession };

const char* WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(std::string_view name);
bool IsServe(Workload w);

/// Fixed shape of one workload. The seed varies the data and the requests,
/// never these.
struct WorkloadConfig {
  size_t clients = 4;
  uint64_t entities = 0;
  /// Buffer-pool pages of the disk store (serve-disk-lookups only).
  size_t pool_pages = 0;
  /// Zipf exponent of the entity draw (serve-disk-lookups only).
  double entity_zipf = 0.0;
};
WorkloadConfig ConfigFor(Workload w);

// ---------------------------------------------------------------------------
// Request sequences. Every sequence is a pure function of (workload, seed,
// client): the same seed replays the same requests.
// ---------------------------------------------------------------------------

/// The query classes the per-class execute metrics are split by.
enum class QueryClass { kSlice, kFacet, kOptional, kAsk, kLookup, kHop };
constexpr size_t kNumQueryClasses = 6;
const char* QueryClassName(QueryClass c);

struct Request {
  std::string text;
  QueryClass cls = QueryClass::kSlice;
};

/// Endless seeded stream of serve steps (each a few requests sent in
/// order) for one client.
class ServeStepStream {
 public:
  ServeStepStream(Workload w, const WorkloadConfig& config, uint64_t seed,
                  uint64_t client);
  std::vector<Request> Next();

 private:
  Workload workload_;
  uint64_t entities_;
  lodviz::Rng rng_;
  lodviz::ZipfSampler zipf_;
  /// rank -> entity bijection (multiplier coprime with `entities_`), so
  /// the popular entities are spread over the id space.
  uint64_t perm_mul_ = 1;
  uint64_t perm_add_ = 0;
};

/// One explore-session step's seeded inputs.
struct ExploreStep {
  uint64_t category = 0;  ///< refine on <category/N>
  std::string term;       ///< keyword search term
};

class ExploreStepStream {
 public:
  ExploreStepStream(uint64_t seed, uint64_t client);
  ExploreStep Next();

 private:
  lodviz::Rng rng_;
};

// ---------------------------------------------------------------------------
// Set-up: dataset, source stack, server, warm-up.
// ---------------------------------------------------------------------------

/// One loaded dataset and the source stack queries run against.
class Dataset {
 public:
  /// Generates and loads the dataset through core::Engine::LoadSynthetic;
  /// for serve-disk-lookups also mirrors it into a DiskTripleStore at
  /// `disk_path` (compact, scan, BulkLoad, DiskSourceAdapter — the same
  /// public constructors the engine's disk backend uses).
  static lodviz::Result<std::unique_ptr<Dataset>> Build(
      Workload w, const WorkloadConfig& config, uint64_t seed,
      const std::string& disk_path);
  ~Dataset();

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  lodviz::core::Engine& engine() { return *engine_; }
  /// The source the serve layer reads: the memory store or the disk
  /// adapter.
  [[nodiscard]] const lodviz::rdf::TripleSource* source() const;
  [[nodiscard]] lodviz::storage::DiskTripleStore* disk() { return disk_.get(); }
  [[nodiscard]] size_t triples() const { return triples_; }
  [[nodiscard]] double load_ms() const { return load_ms_; }
  [[nodiscard]] double mirror_ms() const { return mirror_ms_; }

 private:
  Dataset() = default;

  std::unique_ptr<lodviz::core::Engine> engine_;
  std::unique_ptr<lodviz::storage::DiskTripleStore> disk_;
  std::unique_ptr<lodviz::storage::DiskSourceAdapter> adapter_;
  std::string disk_path_;
  size_t triples_ = 0;
  double load_ms_ = 0.0;
  double mirror_ms_ = 0.0;
};

/// A serve::Frontend over `source` behind a serve::Server on an ephemeral
/// port, on its own thread pool (one acceptor plus one worker per client).
class ServeStack {
 public:
  ServeStack(const lodviz::rdf::TripleSource* source, size_t clients,
             const lodviz::serve::FrontendOptions& options = {});
  ~ServeStack();

  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  lodviz::Status Start();
  [[nodiscard]] int port() const { return server_.port(); }
  lodviz::serve::Frontend& frontend() { return frontend_; }

 private:
  lodviz::serve::Frontend frontend_;
  lodviz::exec::ThreadPool pool_;
  lodviz::serve::Server server_;
};

/// Fills the lazy serve caches over HTTP: every serve-mem-views query
/// once (plan cache), or a warm-up stream of serve-disk-lookups steps
/// (buffer pool, adapter statistics cache). Fails on any non-200.
lodviz::Status WarmServe(Workload w, const WorkloadConfig& config,
                         uint64_t seed, int port);

/// Reference bodies for serve-mem-views, computed in-process through
/// Frontend::Handle: query text -> body.
lodviz::Result<std::unordered_map<std::string, std::string>>
MemViewReference(lodviz::serve::Frontend* frontend);

/// Reference body for any serve query, from the memory-backend
/// sparql::QueryEngine and serve::ResultTableJson.
lodviz::Result<std::string> MemoryAnswer(const lodviz::rdf::TripleSource& mem,
                                         const std::string& query);

/// What one explore-session step returns, reduced to checkable values.
struct ExploreOutputs {
  uint64_t facets_digest = 0;   ///< facet counts before refining
  uint64_t matching = 0;        ///< entities matching after the refine
  uint64_t refined_digest = 0;  ///< facet counts after refining
  uint64_t hetree_items = 0;
  uint64_t elements_drawn = 0;
  uint64_t search_digest = 0;   ///< hit subjects in rank order
};

/// Per-operation timings of one explore-session step (milliseconds).
struct ExploreTimes {
  double facets_ms = 0.0;  ///< browser construction + both facet listings
  double refine_ms = 0.0;
  double hier_ms = 0.0;
  double render_ms = 0.0;
  double search_ms = 0.0;
};

/// Runs one explore-session step on the facade, with a span per operation
/// when `traced` and a tracer is installed.
lodviz::Result<ExploreOutputs> RunExploreStep(lodviz::core::Engine* engine,
                                              const ExploreStep& step,
                                              ExploreTimes* times,
                                              bool traced = true);

/// Outputs recorded during warm-up: the step-invariant parts once, the
/// refine per category and the search per term.
struct ExploreExpected {
  uint64_t facets_digest = 0;
  uint64_t hetree_items = 0;
  uint64_t elements_drawn = 0;
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> refine;  // matching, digest
  std::map<std::string, uint64_t> search;
};

/// Warm-up for explore-session: builds the keyword index and runs every
/// category and term once, recording what they return.
lodviz::Result<ExploreExpected> WarmExplore(lodviz::core::Engine* engine);

/// Number of checked operations in one explore step.
constexpr uint64_t kExploreOpsPerStep = 6;
/// Compares a step's outputs with the warm-up record; adds one outcome per
/// operation to `tally`.
void CheckExploreStep(const ExploreExpected& expected, const ExploreStep& step,
                      const ExploreOutputs& got, Tally* tally);

// ---------------------------------------------------------------------------
// Measured loops.
// ---------------------------------------------------------------------------

struct LoopOptions {
  double seconds = 10.0;
  /// The loop runs past `seconds` until at least this many steps are done.
  size_t min_steps = 100;
  /// Hard stop regardless of `min_steps`; a traced run makes two loops and
  /// must still end within the benchmark's time limit.
  double max_seconds = 50.0;
  /// Spans the loop may record when a tracer is installed; steps are
  /// sampled evenly over `seconds` to stay within it (SpanSampler).
  size_t span_allowance = size_t{1} << 17;
};

/// One completed step: when it ended (seconds since the loop started) and
/// how long it took.
struct StepSample {
  double end_s = 0.0;
  double ms = 0.0;
};

struct ServeLoad {
  std::vector<StepSample> steps;
  std::vector<double> request_ms;
  uint64_t response_bytes = 0;
  double elapsed_s = 0.0;
  Tally tally;
  /// serve-disk-lookups: body digests per client in send order, checked
  /// after the loop by VerifyDeferred.
  std::vector<std::vector<uint64_t>> digests;
};

/// Closed loop: `config.clients` threads, one connection per request, each
/// client waiting for its reply before sending the next. serve-mem-views
/// bodies are compared with `reference` after each step (untimed);
/// serve-disk-lookups bodies are digested for VerifyDeferred.
ServeLoad RunServeLoad(
    Workload w, const WorkloadConfig& config, uint64_t seed, int port,
    const LoopOptions& loop,
    const std::unordered_map<std::string, std::string>* reference);

/// Checks serve-disk-lookups digests against memory-backend answers,
/// memoized per distinct query text. Adds mismatches to `load->tally`.
lodviz::Status VerifyDeferred(Workload w, const WorkloadConfig& config,
                              uint64_t seed,
                              const lodviz::rdf::TripleSource& mem,
                              ServeLoad* load);

struct ExploreLoad {
  std::vector<StepSample> steps;
  ExploreTimes total_times;
  uint64_t matching_sum = 0;
  uint64_t elements_drawn_sum = 0;
  double elapsed_s = 0.0;
  Tally tally;
};

/// Closed loop of explore-session steps from one in-process caller.
ExploreLoad RunExploreLoad(lodviz::core::Engine* engine, uint64_t seed,
                           const ExploreExpected& expected,
                           const LoopOptions& loop);

/// In-process replay of the seeded serve requests through the stages
/// serve::Frontend::Handle runs (parse, plan-cache lookup and plan,
/// execute, serialize), each timed and spanned separately. Runs on a
/// one-thread exec::ThreadPool so execution is serial exactly as on the
/// server's pool workers.
struct StageReplay {
  uint64_t requests = 0;
  double parse_ms = 0.0;
  double plan_ms = 0.0;
  double execute_ms = 0.0;
  double serialize_ms = 0.0;
  double class_execute_ms[kNumQueryClasses] = {};
  uint64_t class_requests[kNumQueryClasses] = {};
  Tally tally;
};
StageReplay RunStageReplay(Workload w, const WorkloadConfig& config,
                           uint64_t seed,
                           const lodviz::sparql::QueryEngine& engine,
                           const lodviz::rdf::TripleSource& mem,
                           double seconds, size_t span_allowance);

/// Pins the calling thread to one of the CPUs it may run on (`index`
/// modulo their count) and restores its affinity when destroyed. On a
/// shared host single cores are intermittently slowed by other tenants, so
/// single-threaded measurements spread over all CPUs on purpose: the
/// explore caller moves on every 250 ms, and set-up k runs on CPU k.
/// Threads started while a pin is held inherit it, so the exec global
/// pool must exist before the first pin and no other threads may start
/// under one.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(size_t index);
  ~ScopedCpuPin();

  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

  void MoveTo(size_t index);

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
};

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q);

/// The end-to-end step statistics of one loop. The loop's time is cut into
/// equal windows (as many as give each about kMinWindowSteps steps, at most
/// kMaxWindows); each statistic is the median over the windows of its
/// per-window value, so a host disturbance confined to a minority of the
/// windows does not move it.
struct StepSummary {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double per_s = 0.0;
  size_t windows = 0;
};
constexpr size_t kMinWindowSteps = 100;
constexpr size_t kMaxWindows = 5;
StepSummary SummarizeSteps(const std::vector<StepSample>& steps,
                           double elapsed_s);

}  // namespace lodbench

#endif  // LODBENCH_WORKLOADS_H_

// lodbench: the lodviz benchmark. Runs one workload against the
// lodviz libraries for a fixed time, checks every answer, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run),
// ending with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   lodbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--data-dir <dir>] [--result <file>] [--spans <file>]
//            [--git-sha <sha>] [--source-digest <hex>]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "trace.h"
#include "workloads.h"

#ifndef LODBENCH_BUILD_TYPE
#define LODBENCH_BUILD_TYPE "unknown"
#endif

namespace lodbench {
namespace {

using lodviz::Status;

struct Args {
  Workload workload = Workload::kServeMemViews;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = ".";
  std::string result_path;
  std::string spans_path;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      std::optional<Workload> w = ParseWorkload(value);
      if (!w) return false;
      args->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--data-dir") {
      args->data_dir = value;
    } else if (key == "--result") {
      args->result_path = value;
    } else if (key == "--spans") {
      args->spans_path = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0 && argc % 2 == 1;
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The registry counters the program keeps, read at a point in time.
struct RegistryReading {
  std::map<std::string, double> values;

  static RegistryReading Take() {
    lodviz::obs::MetricRegistry& reg = lodviz::obs::MetricRegistry::Global();
    RegistryReading r;
    for (const char* name :
         {"serve.plan_cache.hits", "serve.plan_cache.misses", "serve.shed",
          "sparql.intermediate_rows", "sparql.rows_out",
          "sparql.op.hash_build_rows", "exec.pool.tasks",
          "hier.hetree.items_indexed"}) {
      r.values[name] = static_cast<double>(reg.GetCounter(name).value());
    }
    lodviz::obs::Histogram& request_us = reg.GetHistogram("serve.request_us");
    r.values["serve.request_us.count"] =
        static_cast<double>(request_us.count());
    r.values["serve.request_us.sum"] = request_us.sum();
    return r;
  }

  double Delta(const RegistryReading& before, const std::string& name) const {
    return values.at(name) - before.values.at(name);
  }
};

struct PoolReading {
  double hits = 0, misses = 0, evictions = 0, reads = 0;
  static PoolReading Take(lodviz::storage::DiskTripleStore* disk) {
    PoolReading r;
    if (disk == nullptr) return r;
    r.hits = static_cast<double>(disk->pool().hits());
    r.misses = static_cast<double>(disk->pool().misses());
    r.evictions = static_cast<double>(disk->pool().evictions());
    r.reads = static_cast<double>(disk->file().reads());
    return r;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  std::string MetricsJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                                      "\"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// Host and build facts stamped into every result.
struct Meta {
  std::map<std::string, std::string> fields;
  void Set(const std::string& key, const std::string& value) {
    fields[key] = value;
  }
  void Set(const std::string& key, uint64_t value) {
    fields[key] = std::to_string(value);
  }
  std::string Json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : fields) {
      out += (first ? "\"" : ", \"") + k + "\": \"" + v + "\"";
      first = false;
    }
    return out + "}";
  }
};

/// Everything one run measured, before it is turned into metrics.
struct RunState {
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  std::vector<double> mirror_ms;
  std::vector<double> warm_ms;
  Tally tally;
  double peak_rss_mb = 0.0;
  uint64_t steps = 0;
  uint64_t requests = 0;
  size_t windows = 0;
  /// Traced run only: spans written to the span file, and spans beyond a
  /// phase's allowance.
  size_t spans = 0;
  uint64_t spans_dropped = 0;
};


/// Records the untraced loop's sample counts in `state`.
StepSummary CountSamples(const std::vector<StepSample>& steps,
                         double elapsed_s, uint64_t requests,
                         RunState* state) {
  const StepSummary summary = SummarizeSteps(steps, elapsed_s);
  state->steps = steps.size();
  state->windows = summary.windows;
  state->requests = requests;
  return summary;
}

void AddEndToEnd(const StepSummary& summary, const RunState& state,
                 Report* report) {
  report->Add("step_p50_ms", summary.p50_ms, "ms");
  report->Add("step_p90_ms", summary.p90_ms, "ms");
  report->Add("steps_per_s", summary.per_s, "1/s");
  report->Add("setup_s", Median(state.setup_s), "s");
  report->Add("peak_rss_mb", state.peak_rss_mb, "MB");
}

/// Every per-layer metric, zero unless the workload exercises the layer.
struct Layers {
  std::map<std::string, double> v;
  void Set(const std::string& name, double value) { v[name] = value; }
  void Emit(Report* report) const {
    for (const auto& [name, unit] : Units()) {
      auto it = v.find(name);
      report->Add(name, it == v.end() ? 0.0 : it->second, unit);
    }
  }
  static const std::vector<std::pair<std::string, std::string>>& Units() {
    static const std::vector<std::pair<std::string, std::string>> units = {
        {"serve.http_ms", "ms"},
        {"serve.handle_ms", "ms"},
        {"serve.transport_ms", "ms"},
        {"serve.plan_cache_hit_ratio", "ratio"},
        {"serve.shed", "count"},
        {"serve.response_bytes", "bytes"},
        {"serve.serialize_ms", "ms"},
        {"sparql.parse_ms", "ms"},
        {"sparql.plan_ms", "ms"},
        {"sparql.execute_ms", "ms"},
        {"sparql.execute_ms.slice", "ms"},
        {"sparql.execute_ms.facet", "ms"},
        {"sparql.execute_ms.optional", "ms"},
        {"sparql.execute_ms.ask", "ms"},
        {"sparql.execute_ms.lookup", "ms"},
        {"sparql.execute_ms.hop", "ms"},
        {"sparql.intermediate_rows", "count"},
        {"sparql.rows_out", "count"},
        {"sparql.rows_out_per_intermediate", "ratio"},
        {"sparql.hash_build_rows", "count"},
        {"rdf.scan_calls", "count"},
        {"rdf.scan_self_ms", "ms"},
        {"rdf.scan_self_us_per_call", "us"},
        {"rdf.scan_self_us_per_call_1client", "us"},
        {"rdf.triples_delivered", "count"},
        {"rdf.runs_delivered", "count"},
        {"rdf.stats_calls", "count"},
        {"rdf.stats_ms", "ms"},
        {"storage.scan_calls", "count"},
        {"storage.scan_self_ms", "ms"},
        {"storage.scan_self_us_per_call", "us"},
        {"storage.scan_self_us_per_call_1client", "us"},
        {"storage.stats_ms", "ms"},
        {"storage.pool_hit_ratio", "ratio"},
        {"storage.pool_misses", "count"},
        {"storage.pool_evictions", "count"},
        {"storage.file_reads", "count"},
        {"storage.pages_on_disk", "pages"},
        {"storage.pool_pages", "pages"},
        {"exec.pool_tasks", "count"},
        {"explore.facets_ms", "ms"},
        {"explore.refine_ms", "ms"},
        {"explore.search_ms", "ms"},
        {"hier.build_ms", "ms"},
        {"viz.render_ms", "ms"},
        {"explore.matching", "count"},
        {"hier.items_indexed", "count"},
        {"viz.elements_drawn", "count"},
        {"core.load_ms", "ms"},
        {"core.mirror_ms", "ms"},
        {"core.warm_ms", "ms"},
        {"trace.overhead_frac", "frac"},
        {"trace.spans", "count"},
    };
    return units;
  }
};

void SetScanLayer(const std::string& layer, const TimedSource::Totals& load,
                  const TimedSource::Totals& replay, double requests,
                  Layers* layers) {
  layers->Set(layer + ".scan_calls",
              Ratio(static_cast<double>(load.scan_calls), requests));
  layers->Set(layer + ".scan_self_ms",
              Ratio(static_cast<double>(load.scan_self_ns()) / 1e6, requests));
  layers->Set(layer + ".scan_self_us_per_call",
              Ratio(static_cast<double>(load.scan_self_ns()) / 1e3,
                    static_cast<double>(load.scan_calls)));
  layers->Set(layer + ".scan_self_us_per_call_1client",
              Ratio(static_cast<double>(replay.scan_self_ns()) / 1e3,
                    static_cast<double>(replay.scan_calls)));
  layers->Set(layer + ".triples_delivered",
              Ratio(static_cast<double>(load.triples), requests));
  layers->Set(layer + ".runs_delivered",
              Ratio(static_cast<double>(load.runs), requests));
  layers->Set(layer + ".stats_calls",
              Ratio(static_cast<double>(load.stats_calls), requests));
  layers->Set(layer + ".stats_ms",
              Ratio(static_cast<double>(load.stats_ns) / 1e6, requests));
}

TimedSource::Totals Minus(const TimedSource::Totals& a,
                          const TimedSource::Totals& b) {
  TimedSource::Totals d;
  d.scan_calls = a.scan_calls - b.scan_calls;
  d.triples = a.triples - b.triples;
  d.runs = a.runs - b.runs;
  d.scan_ns = a.scan_ns - b.scan_ns;
  d.callback_ns = a.callback_ns - b.callback_ns;
  d.stats_calls = a.stats_calls - b.stats_calls;
  d.stats_ns = a.stats_ns - b.stats_ns;
  return d;
}

/// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 5;
/// Spans each phase of a traced run may keep: the load loop, and the
/// stage replay after it.
constexpr size_t kPhaseSpans = size_t{1} << 17;
/// Share of the run length the traced run spends on the stage replay.
constexpr double kReplayShare = 0.25;

Status RunServe(const Args& args, const WorkloadConfig& config,
               Meta* meta, RunState* state, Report* report) {
  const Workload w = args.workload;
  std::unique_ptr<ServeStack> stack;
  std::unique_ptr<Dataset> dataset;
  for (size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    dataset.reset();
    const std::string disk_path = args.data_dir + "/lodbench-" +
                                  std::to_string(::getpid()) + "-" +
                                  std::to_string(i) + ".db";
    const int64_t t0 = NowNs();
    {
      ScopedCpuPin pin(i);
      LODVIZ_ASSIGN_OR_RETURN(dataset,
                              Dataset::Build(w, config, args.seed, disk_path));
    }
    const int64_t t1 = NowNs();
    stack = std::make_unique<ServeStack>(dataset->source(), config.clients);
    LODVIZ_RETURN_NOT_OK(stack->Start());
    LODVIZ_RETURN_NOT_OK(WarmServe(w, config, args.seed, stack->port()));
    const int64_t t2 = NowNs();
    state->setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    state->load_ms.push_back(dataset->load_ms());
    state->mirror_ms.push_back(dataset->mirror_ms());
    state->warm_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  }
  meta->Set("triples_loaded", dataset->triples());
  lodviz::storage::DiskTripleStore* disk = dataset->disk();
  meta->Set("pages_on_disk", disk ? disk->file().num_pages() : 0);
  meta->Set("pool_pages", disk ? disk->pool().capacity() : 0);

  // Verification data is prepared outside every timed region.
  std::unordered_map<std::string, std::string> reference;
  const std::unordered_map<std::string, std::string>* reference_ptr = nullptr;
  if (w == Workload::kServeMemViews) {
    LODVIZ_ASSIGN_OR_RETURN(reference, MemViewReference(&stack->frontend()));
    reference_ptr = &reference;
  }
  const lodviz::rdf::TripleSource& mem = dataset->engine().store();

  LoopOptions loop;
  loop.seconds = args.seconds;
  loop.max_seconds = std::max(loop.max_seconds, args.seconds);
  loop.span_allowance = kPhaseSpans;
  ServeLoad untraced =
      RunServeLoad(w, config, args.seed, stack->port(), loop, reference_ptr);
  state->peak_rss_mb = PeakRssMb();
  LODVIZ_RETURN_NOT_OK(VerifyDeferred(w, config, args.seed, mem, &untraced));
  state->tally.Merge(untraced.tally);
  const StepSummary summary =
      CountSamples(untraced.steps, untraced.elapsed_s,
                   untraced.request_ms.size(), state);
  if (!args.trace) {
    AddEndToEnd(summary, *state, report);
    return Status::OK();
  }

  // Traced run: the same requests against a stack whose source is wrapped
  // in the timing decorator, with spans recorded.
  const bool on_disk = w == Workload::kServeDiskLookups;
  TimedSource timed(dataset->source());
  ServeStack traced_stack(&timed, config.clients);
  LODVIZ_RETURN_NOT_OK(traced_stack.Start());
  LODVIZ_RETURN_NOT_OK(WarmServe(w, config, args.seed, traced_stack.port()));

  Tracer tracer(kPhaseSpans);
  const TimedSource::Totals totals0 = timed.totals();
  const RegistryReading reg0 = RegistryReading::Take();
  const PoolReading pool0 = PoolReading::Take(disk);
  const int64_t origin = NowNs();
  tracer.Install();
  ServeLoad traced = RunServeLoad(w, config, args.seed, traced_stack.port(),
                                  loop, reference_ptr);
  const RegistryReading reg1 = RegistryReading::Take();
  const PoolReading pool1 = PoolReading::Take(disk);
  const TimedSource::Totals totals1 = timed.totals();
  tracer.StartPhase(kPhaseSpans);
  StageReplay replay =
      RunStageReplay(w, config, args.seed, traced_stack.frontend().engine(),
                     mem, args.seconds * kReplayShare, kPhaseSpans);
  const TimedSource::Totals totals2 = timed.totals();
  tracer.Uninstall();
  if (!args.spans_path.empty() && !tracer.WriteJson(args.spans_path, origin)) {
    return Status::IoError("cannot write " + args.spans_path);
  }
  LODVIZ_RETURN_NOT_OK(VerifyDeferred(w, config, args.seed, mem, &traced));
  state->tally.Merge(traced.tally);
  state->tally.Merge(replay.tally);

  const double requests = static_cast<double>(traced.request_ms.size());
  const double replayed = static_cast<double>(replay.requests);
  Layers layers;
  const double http_ms = Mean(traced.request_ms);
  const double handle_ms =
      Ratio(reg1.Delta(reg0, "serve.request_us.sum") / 1e3,
            reg1.Delta(reg0, "serve.request_us.count"));
  layers.Set("serve.http_ms", http_ms);
  layers.Set("serve.handle_ms", handle_ms);
  layers.Set("serve.transport_ms", http_ms - handle_ms);
  const double hits = reg1.Delta(reg0, "serve.plan_cache.hits");
  const double misses = reg1.Delta(reg0, "serve.plan_cache.misses");
  layers.Set("serve.plan_cache_hit_ratio", Ratio(hits, hits + misses));
  layers.Set("serve.shed", reg1.Delta(reg0, "serve.shed"));
  layers.Set("serve.response_bytes",
             Ratio(static_cast<double>(traced.response_bytes), requests));
  layers.Set("serve.serialize_ms", Ratio(replay.serialize_ms, replayed));
  layers.Set("sparql.parse_ms", Ratio(replay.parse_ms, replayed));
  layers.Set("sparql.plan_ms", Ratio(replay.plan_ms, replayed));
  layers.Set("sparql.execute_ms", Ratio(replay.execute_ms, replayed));
  for (size_t c = 0; c < kNumQueryClasses; ++c) {
    layers.Set(std::string("sparql.execute_ms.") +
                   QueryClassName(static_cast<QueryClass>(c)),
               Ratio(replay.class_execute_ms[c],
                     static_cast<double>(replay.class_requests[c])));
  }
  const double intermediate = reg1.Delta(reg0, "sparql.intermediate_rows");
  const double rows_out = reg1.Delta(reg0, "sparql.rows_out");
  layers.Set("sparql.intermediate_rows", Ratio(intermediate, requests));
  layers.Set("sparql.rows_out", Ratio(rows_out, requests));
  layers.Set("sparql.rows_out_per_intermediate", Ratio(rows_out, intermediate));
  layers.Set("sparql.hash_build_rows",
             Ratio(reg1.Delta(reg0, "sparql.op.hash_build_rows"), requests));
  SetScanLayer(on_disk ? "storage" : "rdf", Minus(totals1, totals0),
               Minus(totals2, totals1), requests, &layers);
  if (on_disk) {
    layers.Set("storage.pool_hit_ratio",
               Ratio(pool1.hits - pool0.hits, pool1.hits - pool0.hits +
                                                  pool1.misses - pool0.misses));
    layers.Set("storage.pool_misses",
               Ratio(pool1.misses - pool0.misses, requests));
    layers.Set("storage.pool_evictions",
               Ratio(pool1.evictions - pool0.evictions, requests));
    layers.Set("storage.file_reads",
               Ratio(pool1.reads - pool0.reads, requests));
    layers.Set("storage.pages_on_disk", disk->file().num_pages());
    layers.Set("storage.pool_pages", disk->pool().capacity());
  }
  layers.Set("exec.pool_tasks",
             Ratio(reg1.Delta(reg0, "exec.pool.tasks"), requests));
  layers.Set("core.load_ms", Median(state->load_ms));
  layers.Set("core.mirror_ms", Median(state->mirror_ms));
  layers.Set("core.warm_ms", Median(state->warm_ms));
  layers.Set("trace.overhead_frac",
             Ratio(SummarizeSteps(traced.steps, traced.elapsed_s).p50_ms,
                   summary.p50_ms) - 1.0);
  state->spans = tracer.recorded();
  state->spans_dropped = tracer.dropped();
  layers.Set("trace.spans", static_cast<double>(state->spans));
  layers.Emit(report);
  return Status::OK();
}

Status RunExplore(const Args& args, const WorkloadConfig& config,
                 Meta* meta, RunState* state, Report* report) {
  std::unique_ptr<Dataset> dataset;
  ExploreExpected expected;
  for (size_t i = 0; i < kSetups; ++i) {
    dataset.reset();
    ScopedCpuPin pin(i);
    const int64_t t0 = NowNs();
    LODVIZ_ASSIGN_OR_RETURN(
        dataset, Dataset::Build(args.workload, config, args.seed, ""));
    const int64_t t1 = NowNs();
    LODVIZ_ASSIGN_OR_RETURN(expected, WarmExplore(&dataset->engine()));
    const int64_t t2 = NowNs();
    state->setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    state->load_ms.push_back(dataset->load_ms());
    state->warm_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  }
  meta->Set("triples_loaded", dataset->triples());
  meta->Set("pages_on_disk", 0);
  meta->Set("pool_pages", 0);

  LoopOptions loop;
  loop.seconds = args.seconds;
  loop.max_seconds = std::max(loop.max_seconds, args.seconds);
  loop.span_allowance = kPhaseSpans;
  lodviz::core::Engine* engine = &dataset->engine();
  ExploreLoad untraced = RunExploreLoad(engine, args.seed, expected, loop);
  state->peak_rss_mb = PeakRssMb();
  state->tally.Merge(untraced.tally);
  const StepSummary summary =
      CountSamples(untraced.steps, untraced.elapsed_s,
                   untraced.steps.size() * kExploreOpsPerStep, state);
  if (!args.trace) {
    AddEndToEnd(summary, *state, report);
    return Status::OK();
  }

  Tracer tracer(kPhaseSpans);
  const RegistryReading reg0 = RegistryReading::Take();
  const int64_t origin = NowNs();
  tracer.Install();
  ExploreLoad traced = RunExploreLoad(engine, args.seed, expected, loop);
  tracer.Uninstall();
  const RegistryReading reg1 = RegistryReading::Take();
  if (!args.spans_path.empty() && !tracer.WriteJson(args.spans_path, origin)) {
    return Status::IoError("cannot write " + args.spans_path);
  }
  state->tally.Merge(traced.tally);

  const double steps = static_cast<double>(traced.steps.size());
  Layers layers;
  layers.Set("explore.facets_ms", Ratio(traced.total_times.facets_ms, steps));
  layers.Set("explore.refine_ms", Ratio(traced.total_times.refine_ms, steps));
  layers.Set("explore.search_ms", Ratio(traced.total_times.search_ms, steps));
  layers.Set("hier.build_ms", Ratio(traced.total_times.hier_ms, steps));
  layers.Set("viz.render_ms", Ratio(traced.total_times.render_ms, steps));
  layers.Set("explore.matching",
             Ratio(static_cast<double>(traced.matching_sum), steps));
  layers.Set("hier.items_indexed",
             Ratio(reg1.Delta(reg0, "hier.hetree.items_indexed"), steps));
  layers.Set("viz.elements_drawn",
             Ratio(static_cast<double>(traced.elements_drawn_sum), steps));
  layers.Set("exec.pool_tasks",
             Ratio(reg1.Delta(reg0, "exec.pool.tasks"), steps));
  layers.Set("core.load_ms", Median(state->load_ms));
  layers.Set("core.warm_ms", Median(state->warm_ms));
  layers.Set("trace.overhead_frac",
             Ratio(SummarizeSteps(traced.steps, traced.elapsed_s).p50_ms,
                   summary.p50_ms) - 1.0);
  state->spans = tracer.recorded();
  state->spans_dropped = tracer.dropped();
  layers.Set("trace.spans", static_cast<double>(state->spans));
  layers.Emit(report);
  return Status::OK();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lodbench --workload "
                 "serve-mem-views|serve-disk-lookups|explore-session "
                 "--seed N --seconds S --trace 0|1 "
                 "[--data-dir DIR] [--result FILE] [--spans FILE] "
                 "[--git-sha SHA] [--source-digest HEX]\n");
    return 2;
  }
  const WorkloadConfig config = ConfigFor(args.workload);
  Meta meta;
  meta.Set("workload", WorkloadName(args.workload));
  meta.Set("seed", args.seed);
  meta.Set("trace", args.trace ? 1 : 0);
  meta.Set("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  meta.Set("compiler", __VERSION__);
  meta.Set("build_type", LODBENCH_BUILD_TYPE);
  meta.Set("git_sha", args.git_sha);
  meta.Set("source_digest", args.source_digest);
  meta.Set("clients", config.clients);
  meta.Set("entities", config.entities);
  meta.Set("setups", kSetups);

  // The exec global pool starts its threads now, before any CPU pin, so
  // they keep the process's full affinity.
  lodviz::exec::GlobalPool();
  RunState state;
  Report report;
  std::error_code ec;
  std::filesystem::create_directories(args.data_dir, ec);
  const Status ran =
      IsServe(args.workload)
          ? RunServe(args, config, &meta, &state, &report)
          : RunExplore(args, config, &meta, &state, &report);
  if (!ran.ok()) {
    std::fprintf(stderr, "lodbench: %s failed: %s\n",
                 WorkloadName(args.workload), ran.ToString().c_str());
    return 1;
  }

  const bool enough_steps = state.steps >= LoopOptions().min_steps;
  const bool correct = state.tally.failed() == 0 && enough_steps;
  std::printf("lodbench %s seed=%llu trace=%d\n", WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("  meta %s\n", meta.Json().c_str());
  std::printf("  samples: %llu steps in %zu windows, %llu requests, %zu "
              "set-ups\n",
              static_cast<unsigned long long>(state.steps), state.windows,
              static_cast<unsigned long long>(state.requests),
              state.setup_s.size());
  std::printf("  fail_frac %.6g (%llu failed of %llu attempted: %llu shed, "
              "%llu non-200, %llu mismatched, %llu transport)\n",
              state.tally.fail_frac(),
              static_cast<unsigned long long>(state.tally.failed()),
              static_cast<unsigned long long>(state.tally.attempted),
              static_cast<unsigned long long>(state.tally.shed),
              static_cast<unsigned long long>(state.tally.http_errors),
              static_cast<unsigned long long>(state.tally.mismatches),
              static_cast<unsigned long long>(state.tally.transport));
  if (args.trace) {
    std::printf("  spans: %zu recorded, %llu dropped%s\n", state.spans,
                static_cast<unsigned long long>(state.spans_dropped),
                state.spans_dropped > 0
                    ? " (a phase exceeded its allowance; the span file "
                      "misses part of it)"
                    : "");
  }
  if (!enough_steps) {
    std::printf("  too few steps for a p90 (need %zu)\n",
                LoopOptions().min_steps);
  }
  for (const Metric& m : report.metrics()) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  if (!args.result_path.empty()) {
    std::FILE* f = std::fopen(args.result_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                   "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                   "\"fail_frac\": %.17g, \"samples\": {\"steps\": %llu, "
                   "\"windows\": %zu, \"requests\": %llu, \"setups\": %zu, "
                   "\"spans\": %zu, \"spans_dropped\": %llu},"
                   "\n\"meta\": %s,\n"
                   "\"metrics\": %s}\n",
                   WorkloadName(args.workload),
                   static_cast<unsigned long long>(args.seed),
                   args.trace ? 1 : 0, correct ? "true" : "false",
                   static_cast<unsigned long long>(state.tally.attempted),
                   static_cast<unsigned long long>(state.tally.failed()),
                   state.tally.fail_frac(),
                   static_cast<unsigned long long>(state.steps),
                   state.windows,
                   static_cast<unsigned long long>(state.requests),
                   state.setup_s.size(), state.spans,
                   static_cast<unsigned long long>(state.spans_dropped),
                   meta.Json().c_str(),
                   report.MetricsJson().c_str());
      std::fclose(f);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(state.tally.attempted),
              static_cast<unsigned long long>(state.tally.failed()),
              report.MetricsJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace lodbench

int main(int argc, char** argv) { return lodbench::Main(argc, argv); }

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "common/stopwatch.h"
#include "rdf/vocab.h"
#include "serve/plan_cache.h"
#include "serve/serialize.h"
#include "sparql/fingerprint.h"
#include "sparql/parser.h"
#include "trace.h"
#include "workload/synthetic_lod.h"

namespace lodbench {

namespace lod = lodviz::workload::lod;
using lodviz::Result;
using lodviz::Status;

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Independent stream seed per (seed, client, purpose).
uint64_t StreamSeed(uint64_t seed, uint64_t client, uint64_t salt) {
  return SplitMix(SplitMix(seed) ^ SplitMix(client * 0x100 + salt));
}

std::string Iri(const std::string& iri) { return "<" + iri + ">"; }

const std::string kType = Iri(lodviz::rdf::vocab::kRdfType);
const std::string kLabel = Iri(lodviz::rdf::vocab::kRdfsLabel);

// serve-mem-views: the four e14 exploration queries, with their constants
// drawn per step from these small sets (all warmed into the plan cache).
const int kSliceAbove[] = {50, 55, 60, 65, 70};
const int kOptionalBelow[] = {18, 20, 22};
const char* const kAskClass[] = {lod::kPerson, lod::kPlace,
                                 lod::kOrganization};

std::string SliceQuery(int above) {
  return "SELECT ?s ?age WHERE { ?s " + kType + " " + Iri(lod::kPerson) +
         " ; " + Iri(lod::kAge) + " ?age . FILTER(?age > " +
         std::to_string(above) + ") } ORDER BY DESC(?age) LIMIT 100";
}

std::string FacetQuery() {
  return "SELECT ?cat (COUNT(*) AS ?n) WHERE { ?s " + Iri(lod::kCategory) +
         " ?cat } GROUP BY ?cat ORDER BY DESC(?n) ?cat";
}

std::string OptionalQuery(int below) {
  return "SELECT ?s ?label WHERE { ?s " + Iri(lod::kAge) +
         " ?age . OPTIONAL { ?s " + kLabel + " ?label . } FILTER(?age < " +
         std::to_string(below) + ") } ORDER BY ?s LIMIT 200";
}

std::string AskQuery(const char* cls) {
  return "ASK { ?s " + kType + " " + Iri(cls) + " }";
}

std::string EntityIri(uint64_t i) {
  return Iri(lod::kEntityPrefix + std::to_string(i));
}

template <typename T, size_t N>
const T& Pick(lodviz::Rng& rng, const T (&options)[N]) {
  return options[rng.Uniform(N)];
}

// explore-session vocabulary: the words the generator builds labels from.
const char* const kTerms[] = {
    "ancient", "blue",    "coastal", "digital", "eastern", "famous",
    "grand",   "hidden",  "iron",    "jade",    "keen",    "lunar",
    "archive", "bridge",  "citadel", "delta",   "engine",  "forest",
    "garden",  "harbor",  "island",  "junction", "keep",   "library"};
constexpr uint64_t kExploreCategoryCount = 6;

/// Warm-up streams use client ids past any real client.
constexpr uint64_t kWarmClient = 1000;
constexpr size_t kDiskWarmSteps = 256;
/// Per-client capacity reserved for latency samples and body digests.
constexpr size_t kSampleReserve = size_t{1} << 21;

uint64_t DigestValues(const std::vector<uint64_t>& values) {
  std::string bytes;
  for (uint64_t v : values) bytes += std::to_string(v) + ",";
  return lodviz::sparql::Fnv1a64(bytes);
}

uint64_t DigestFacets(const std::vector<lodviz::explore::Facet>& facets) {
  std::vector<uint64_t> values;
  for (const auto& f : facets) {
    values.push_back(f.predicate);
    for (const auto& v : f.values) {
      values.push_back(v.value);
      values.push_back(v.count);
    }
  }
  return DigestValues(values);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

const char* ExecuteSpanName(QueryClass c) {
  switch (c) {
    case QueryClass::kSlice:
      return "sparql.execute.slice";
    case QueryClass::kFacet:
      return "sparql.execute.facet";
    case QueryClass::kOptional:
      return "sparql.execute.optional";
    case QueryClass::kAsk:
      return "sparql.execute.ask";
    case QueryClass::kLookup:
      return "sparql.execute.lookup";
    case QueryClass::kHop:
      return "sparql.execute.hop";
  }
  return "sparql.execute";
}

/// Requests in one serve step (see ServeStepStream::Next).
size_t RequestsPerStep(Workload w) {
  return w == Workload::kServeDiskLookups ? 2 : 4;
}

/// Spans one explore-session step records (see RunExploreStep).
constexpr size_t kExploreSpansPerStep = 7;
/// Spans one replayed request records (see RunStageReplay).
constexpr size_t kReplaySpansPerRequest = 5;

/// Every distinct query serve-mem-views can send (its warm-up set).
std::vector<std::string> MemViewQueries() {
  std::vector<std::string> out;
  for (int v : kSliceAbove) out.push_back(SliceQuery(v));
  out.push_back(FacetQuery());
  for (int v : kOptionalBelow) out.push_back(OptionalQuery(v));
  for (const char* c : kAskClass) out.push_back(AskQuery(c));
  return out;
}

/// The explore-session input space (its warm-up set).
std::vector<uint64_t> ExploreCategories() {
  std::vector<uint64_t> out(kExploreCategoryCount);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

std::vector<std::string> ExploreTerms() {
  return std::vector<std::string>(std::begin(kTerms), std::end(kTerms));
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServeMemViews:
      return "serve-mem-views";
    case Workload::kServeDiskLookups:
      return "serve-disk-lookups";
    case Workload::kExploreSession:
      return "explore-session";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kServeMemViews, Workload::kServeDiskLookups,
                     Workload::kExploreSession}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

bool IsServe(Workload w) { return w != Workload::kExploreSession; }

WorkloadConfig ConfigFor(Workload w) {
  WorkloadConfig c;
  switch (w) {
    case Workload::kServeMemViews:
      c.clients = 4;
      c.entities = 4000;
      break;
    case Workload::kServeDiskLookups:
      c.clients = 4;
      c.entities = 20000;
      c.pool_pages = 64;
      c.entity_zipf = 1.0;
      break;
    case Workload::kExploreSession:
      c.clients = 1;
      c.entities = 4000;
      break;
  }
  return c;
}

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kSlice:
      return "slice";
    case QueryClass::kFacet:
      return "facet";
    case QueryClass::kOptional:
      return "optional";
    case QueryClass::kAsk:
      return "ask";
    case QueryClass::kLookup:
      return "lookup";
    case QueryClass::kHop:
      return "hop";
  }
  return "?";
}

ServeStepStream::ServeStepStream(Workload w, const WorkloadConfig& config,
                                 uint64_t seed, uint64_t client)
    : workload_(w),
      entities_(std::max<uint64_t>(1, config.entities)),
      rng_(StreamSeed(seed, client, 1)),
      zipf_(entities_, config.entity_zipf > 0 ? config.entity_zipf : 1.0) {
  // The rank -> entity bijection depends on the seed only, so every
  // client agrees on which entities are popular.
  lodviz::Rng perm(StreamSeed(seed, 0, 2));
  perm_add_ = perm.Uniform(entities_);
  perm_mul_ = 1 + perm.Uniform(entities_);
  while (std::gcd(perm_mul_, entities_) != 1) ++perm_mul_;
  perm_mul_ %= entities_;
  if (perm_mul_ == 0) perm_mul_ = 1;
}

std::vector<Request> ServeStepStream::Next() {
  if (workload_ == Workload::kServeDiskLookups) {
    const uint64_t rank = zipf_.Sample(rng_);
    const std::string e =
        EntityIri((rank * perm_mul_ + perm_add_) % entities_);
    return {{"SELECT ?p ?o WHERE { " + e + " ?p ?o }", QueryClass::kLookup},
            {"SELECT ?f ?c WHERE { " + e + " " + Iri(lod::kKnows) + " ?f . ?f " +
                 Iri(lod::kCategory) + " ?c }",
             QueryClass::kHop}};
  }
  return {{SliceQuery(Pick(rng_, kSliceAbove)), QueryClass::kSlice},
          {FacetQuery(), QueryClass::kFacet},
          {OptionalQuery(Pick(rng_, kOptionalBelow)), QueryClass::kOptional},
          {AskQuery(Pick(rng_, kAskClass)), QueryClass::kAsk}};
}


ExploreStepStream::ExploreStepStream(uint64_t seed, uint64_t client)
    : rng_(StreamSeed(seed, client, 3)) {}

ExploreStep ExploreStepStream::Next() {
  ExploreStep step;
  step.category = rng_.Uniform(kExploreCategoryCount);
  step.term = Pick(rng_, kTerms);
  return step;
}



// ---------------------------------------------------------------------------

Result<std::unique_ptr<Dataset>> Dataset::Build(Workload w,
                                                const WorkloadConfig& config,
                                                uint64_t seed,
                                                const std::string& disk_path) {
  std::unique_ptr<Dataset> d(new Dataset());
  d->engine_ = std::make_unique<lodviz::core::Engine>();
  lodviz::workload::SyntheticLodOptions synth;
  synth.num_entities = config.entities;
  synth.seed = seed;
  lodviz::Stopwatch sw;
  d->triples_ = d->engine_->LoadSynthetic(synth);
  d->load_ms_ = sw.ElapsedMillis();
  if (w != Workload::kServeDiskLookups) return d;

  sw.Reset();
  d->disk_path_ = disk_path;
  LODVIZ_ASSIGN_OR_RETURN(
      d->disk_,
      lodviz::storage::DiskTripleStore::Create(disk_path, config.pool_pages));
  // Same steps as the engine's disk mirror: compact so both backends hold
  // the same deduplicated triples, then bulk-load every triple.
  lodviz::rdf::TripleStore& store = d->engine_->store();
  store.Compact();
  std::vector<lodviz::rdf::Triple> triples;
  triples.reserve(store.size());
  store.Scan({}, [&](const lodviz::rdf::Triple& t) {
    triples.push_back(t);
    return true;
  });
  LODVIZ_RETURN_NOT_OK(d->disk_->BulkLoad(std::move(triples)));
  d->adapter_ = std::make_unique<lodviz::storage::DiskSourceAdapter>(
      d->disk_.get(), &store.dict());
  d->mirror_ms_ = sw.ElapsedMillis();
  return d;
}

Dataset::~Dataset() {
  // Close the page file before deleting it.
  adapter_.reset();
  disk_.reset();
  if (!disk_path_.empty()) std::remove(disk_path_.c_str());
}

const lodviz::rdf::TripleSource* Dataset::source() const {
  if (adapter_ != nullptr) return adapter_.get();
  return &engine_->store();
}

ServeStack::ServeStack(const lodviz::rdf::TripleSource* source,
                       size_t clients,
                       const lodviz::serve::FrontendOptions& options)
    : frontend_(source, options),
      pool_(clients + 1),
      server_(&frontend_, &pool_, [clients] {
        lodviz::serve::Server::Options o;
        o.port = 0;
        o.num_workers = clients;
        return o;
      }()) {}

ServeStack::~ServeStack() {
  server_.Stop();
  pool_.Shutdown();
}

Status ServeStack::Start() { return server_.Start(); }

Status WarmServe(Workload w, const WorkloadConfig& config, uint64_t seed,
                 int port) {
  std::vector<std::string> texts;
  if (w == Workload::kServeMemViews) {
    texts = MemViewQueries();
  } else {
    ServeStepStream warm(w, config, seed, kWarmClient);
    for (size_t i = 0; i < kDiskWarmSteps; ++i) {
      for (Request& r : warm.Next()) texts.push_back(std::move(r.text));
    }
  }
  std::string raw;
  for (const std::string& text : texts) {
    Fetch(port, SparqlGetRequest(text), &raw);
    if (Classify(raw, nullptr, nullptr) != Outcome::kOk) {
      return Status::Internal("warm-up request failed: " + text);
    }
  }
  return Status::OK();
}

Result<std::unordered_map<std::string, std::string>> MemViewReference(
    lodviz::serve::Frontend* frontend) {
  std::unordered_map<std::string, std::string> out;
  for (const std::string& text : MemViewQueries()) {
    lodviz::serve::QueryRequest request;
    request.query = text;
    lodviz::serve::QueryResponse response = frontend->Handle(request);
    if (response.status != lodviz::serve::RequestStatus::kOk) {
      return Status::Internal("reference query failed: " + response.body);
    }
    out.emplace(text, std::move(response.body));
  }
  return out;
}

Result<std::string> MemoryAnswer(const lodviz::rdf::TripleSource& mem,
                                 const std::string& query) {
  LODVIZ_ASSIGN_OR_RETURN(lodviz::sparql::Query parsed,
                          lodviz::sparql::ParseQuery(query));
  lodviz::sparql::QueryEngine engine(&mem);
  LODVIZ_ASSIGN_OR_RETURN(lodviz::sparql::ResultTable table,
                          engine.Execute(parsed));
  return lodviz::serve::ResultTableJson(
      table, parsed.form == lodviz::sparql::QueryForm::kAsk);
}

// ---------------------------------------------------------------------------

Result<ExploreOutputs> RunExploreStep(lodviz::core::Engine* engine,
                                      const ExploreStep& step,
                                      ExploreTimes* times, bool traced) {
  auto span_name = [traced](const char* name) {
    return traced ? name : nullptr;
  };
  ExploreOutputs out;
  lodviz::Stopwatch sw;
  std::optional<lodviz::explore::FacetedBrowser> browser;
  {
    ScopedSpan span(span_name("explore.facets"));
    browser.emplace(engine->MakeBrowser());
    out.facets_digest = DigestFacets(browser->Facets());
  }
  times->facets_ms += sw.ElapsedMillis();

  sw.Reset();
  {
    ScopedSpan span(span_name("explore.refine"));
    const lodviz::rdf::Dictionary& dict = engine->store().dict();
    const lodviz::rdf::TermId predicate =
        dict.Lookup(lodviz::rdf::Term::Iri(lod::kCategory));
    const lodviz::rdf::TermId value = dict.Lookup(lodviz::rdf::Term::Iri(
        lod::kCategoryPrefix + std::to_string(step.category)));
    LODVIZ_RETURN_NOT_OK(browser->Select(predicate, value));
    out.matching = browser->num_matching();
  }
  times->refine_ms += sw.ElapsedMillis();

  sw.Reset();
  {
    ScopedSpan span(span_name("explore.facets"));
    out.refined_digest = DigestFacets(browser->Facets());
  }
  times->facets_ms += sw.ElapsedMillis();

  sw.Reset();
  {
    ScopedSpan span(span_name("hier.build"));
    LODVIZ_ASSIGN_OR_RETURN(
        lodviz::hier::HETree tree,
        engine->BuildHierarchy(lod::kAge, lodviz::hier::HETree::Options()));
    out.hetree_items = tree.num_items();
  }
  times->hier_ms += sw.ElapsedMillis();

  sw.Reset();
  {
    ScopedSpan span(span_name("viz.render"));
    lodviz::viz::VisSpec spec;
    spec.kind = lodviz::viz::VisKind::kScatter;
    spec.x_property = lod::kAge;
    spec.y_property = lodviz::rdf::vocab::kGeoLat;
    LODVIZ_ASSIGN_OR_RETURN(lodviz::core::ViewResult view,
                            engine->Render(spec));
    out.elements_drawn = view.render.elements_drawn;
  }
  times->render_ms += sw.ElapsedMillis();

  sw.Reset();
  {
    ScopedSpan span(span_name("explore.search"));
    std::vector<uint64_t> values;
    for (const auto& hit : engine->Search(step.term, 10)) {
      values.push_back(hit.subject);
    }
    out.search_digest = DigestValues(values);
  }
  times->search_ms += sw.ElapsedMillis();
  return out;
}

Result<ExploreExpected> WarmExplore(lodviz::core::Engine* engine) {
  engine->Keyword();
  ExploreExpected expected;
  ExploreTimes ignored;
  const std::vector<std::string> terms = ExploreTerms();
  const std::vector<uint64_t> categories = ExploreCategories();
  for (size_t i = 0; i < std::max(terms.size(), categories.size()); ++i) {
    ExploreStep step;
    step.category = categories[i % categories.size()];
    step.term = terms[i % terms.size()];
    LODVIZ_ASSIGN_OR_RETURN(ExploreOutputs out,
                            RunExploreStep(engine, step, &ignored));
    if (i == 0) {
      expected.facets_digest = out.facets_digest;
      expected.hetree_items = out.hetree_items;
      expected.elements_drawn = out.elements_drawn;
    }
    expected.refine[step.category] = {out.matching, out.refined_digest};
    expected.search[step.term] = out.search_digest;
  }
  return expected;
}

void CheckExploreStep(const ExploreExpected& expected, const ExploreStep& step,
                      const ExploreOutputs& got, Tally* tally) {
  auto check = [tally](bool ok) {
    tally->Add(ok ? Outcome::kOk : Outcome::kMismatch);
  };
  const auto refine = expected.refine.find(step.category);
  const auto search = expected.search.find(step.term);
  check(got.facets_digest == expected.facets_digest);
  check(refine != expected.refine.end() &&
        got.matching == refine->second.first);
  check(refine != expected.refine.end() &&
        got.refined_digest == refine->second.second);
  check(got.hetree_items == expected.hetree_items);
  check(got.elements_drawn == expected.elements_drawn);
  check(search != expected.search.end() && got.search_digest == search->second);
}

// ---------------------------------------------------------------------------

ServeLoad RunServeLoad(
    Workload w, const WorkloadConfig& config, uint64_t seed, int port,
    const LoopOptions& loop,
    const std::unordered_map<std::string, std::string>* reference) {
  const size_t clients = config.clients;
  ServeLoad out;
  out.digests.resize(clients);
  std::vector<ServeLoad> per_client(clients);
  std::atomic<size_t> steps_done{0};
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(loop.seconds * 1e9);
  const int64_t hard_stop =
      start + static_cast<int64_t>(loop.max_seconds * 1e9);

  auto client_loop = [&](size_t c) {
    ServeLoad& mine = per_client[c];
    std::vector<uint64_t>& digests = out.digests[c];
    // Reserved address space is only resident once written, so the
    // sample buffers grow the process linearly instead of by doubling.
    mine.steps.reserve(kSampleReserve);
    mine.request_ms.reserve(kSampleReserve);
    if (reference == nullptr) digests.reserve(kSampleReserve);
    ServeStepStream stream(w, config, seed, c);
    SpanSampler sampler(loop.seconds, clients, 1 + RequestsPerStep(w),
                        loop.span_allowance);
    std::vector<std::string> wire;
    std::vector<std::string> raw;
    std::string body;
    uint64_t request_seq = 0;
    for (;;) {
      const int64_t now = NowNs();
      if (now >= hard_stop) break;
      if (now >= deadline &&
          steps_done.load(std::memory_order_relaxed) >= loop.min_steps) {
        break;
      }
      const std::vector<Request> requests = stream.Next();
      wire.resize(requests.size());
      raw.resize(requests.size());
      for (size_t i = 0; i < requests.size(); ++i) {
        wire[i] = SparqlGetRequest(requests[i].text);
      }
      int64_t step_start = 0;
      int64_t step_end = 0;
      {
        const bool traced = Tracer::Installed() != nullptr && sampler.Take();
        ScopedSpan step_span(traced ? "step" : nullptr);
        step_start = NowNs();
        for (size_t i = 0; i < requests.size(); ++i) {
          RequestScope scope(((c + 1) << 32) | ++request_seq);
          ScopedSpan span(traced ? "serve.http" : nullptr);
          const int64_t t0 = NowNs();
          Fetch(port, wire[i], &raw[i]);
          mine.request_ms.push_back(Ms(NowNs() - t0));
        }
        step_end = NowNs();
      }
      mine.steps.push_back({static_cast<double>(step_end - start) / 1e9,
                            Ms(step_end - step_start)});
      steps_done.fetch_add(1, std::memory_order_relaxed);

      // Checking is outside the timed step.
      for (size_t i = 0; i < requests.size(); ++i) {
        const std::string* expected = nullptr;
        if (reference != nullptr) {
          auto it = reference->find(requests[i].text);
          if (it == reference->end()) {
            mine.tally.Add(Outcome::kMismatch);
            continue;
          }
          expected = &it->second;
        }
        const Outcome outcome = Classify(raw[i], expected, &body);
        mine.tally.Add(outcome);
        if (outcome == Outcome::kOk) mine.response_bytes += body.size();
        if (reference == nullptr) {
          digests.push_back(
              outcome == Outcome::kOk ? lodviz::sparql::Fnv1a64(body) : 0);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  for (std::thread& t : threads) t.join();

  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  size_t steps = 0;
  size_t requests = 0;
  for (const ServeLoad& mine : per_client) {
    steps += mine.steps.size();
    requests += mine.request_ms.size();
  }
  out.steps.reserve(steps);
  out.request_ms.reserve(requests);
  for (const ServeLoad& mine : per_client) {
    out.steps.insert(out.steps.end(), mine.steps.begin(), mine.steps.end());
    out.request_ms.insert(out.request_ms.end(), mine.request_ms.begin(),
                          mine.request_ms.end());
    out.response_bytes += mine.response_bytes;
    out.tally.Merge(mine.tally);
  }
  return out;
}

Status VerifyDeferred(Workload w, const WorkloadConfig& config, uint64_t seed,
                      const lodviz::rdf::TripleSource& mem, ServeLoad* load) {
  std::unordered_map<std::string, uint64_t> memo;
  for (size_t c = 0; c < load->digests.size(); ++c) {
    const std::vector<uint64_t>& digests = load->digests[c];
    ServeStepStream stream(w, config, seed, c);
    size_t i = 0;
    while (i < digests.size()) {
      for (const Request& r : stream.Next()) {
        if (i >= digests.size()) break;
        const uint64_t got = digests[i++];
        if (got == 0) continue;  // already counted as a failure
        auto it = memo.find(r.text);
        if (it == memo.end()) {
          LODVIZ_ASSIGN_OR_RETURN(std::string body, MemoryAnswer(mem, r.text));
          it = memo.emplace(r.text, lodviz::sparql::Fnv1a64(body)).first;
        }
        if (it->second != got) ++load->tally.mismatches;
      }
    }
  }
  return Status::OK();
}

namespace {

/// How long the explore caller stays on one CPU before moving on.
constexpr int64_t kCpuRotationNs = 250'000'000;

}  // namespace

ExploreLoad RunExploreLoad(lodviz::core::Engine* engine, uint64_t seed,
                           const ExploreExpected& expected,
                           const LoopOptions& loop) {
  ExploreLoad out;
  out.steps.reserve(kSampleReserve);
  ExploreStepStream stream(seed, 0);
  SpanSampler sampler(loop.seconds, 1, kExploreSpansPerStep,
                      loop.span_allowance);
  ScopedCpuPin pin(0);
  size_t cpu = 0;
  int64_t next_move = NowNs() + kCpuRotationNs;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(loop.seconds * 1e9);
  const int64_t hard_stop =
      start + static_cast<int64_t>(loop.max_seconds * 1e9);
  uint64_t request_seq = 0;
  for (;;) {
    const int64_t now = NowNs();
    if (now >= hard_stop) break;
    if (now >= deadline && out.steps.size() >= loop.min_steps) break;
    if (now >= next_move) {
      pin.MoveTo(++cpu);
      next_move = now + kCpuRotationNs;
    }
    const ExploreStep step = stream.Next();
    const bool traced = Tracer::Installed() != nullptr && sampler.Take();
    int64_t step_start = 0;
    int64_t step_end = 0;
    Result<ExploreOutputs> got = [&] {
      RequestScope scope((uint64_t{1} << 32) | ++request_seq);
      ScopedSpan span(traced ? "step" : nullptr);
      step_start = NowNs();
      Result<ExploreOutputs> r =
          RunExploreStep(engine, step, &out.total_times, traced);
      step_end = NowNs();
      return r;
    }();
    out.steps.push_back({static_cast<double>(step_end - start) / 1e9,
                         Ms(step_end - step_start)});
    if (!got.ok()) {
      for (uint64_t i = 0; i < kExploreOpsPerStep; ++i) {
        out.tally.Add(Outcome::kHttpError);
      }
      continue;
    }
    out.matching_sum += got->matching;
    out.elements_drawn_sum += got->elements_drawn;
    CheckExploreStep(expected, step, *got, &out.tally);
  }
  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

StageReplay RunStageReplay(Workload w, const WorkloadConfig& config,
                           uint64_t seed,
                           const lodviz::sparql::QueryEngine& engine,
                           const lodviz::rdf::TripleSource& mem,
                           double seconds, size_t span_allowance) {
  StageReplay out;
  auto replay = [&] {
    lodviz::serve::PlanCache cache(
        lodviz::serve::FrontendOptions().plan_cache_capacity);
    std::unordered_map<std::string, std::string> reference;
    std::vector<ServeStepStream> streams;
    for (size_t c = 0; c < config.clients; ++c) {
      streams.emplace_back(w, config, seed, c);
    }
    SpanSampler sampler(seconds, 1, kReplaySpansPerRequest, span_allowance);
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    uint64_t request_seq = 0;
    do {
      for (ServeStepStream& stream : streams) {
        for (const Request& r : stream.Next()) {
          const bool traced = sampler.Take();
          auto span_name = [traced](const char* name) {
            return traced ? name : nullptr;
          };
          RequestScope scope((uint64_t{0xFFFF} << 32) | ++request_seq);
          ScopedSpan request_span(span_name("serve.request"));
          const int64_t t0 = NowNs();
          Result<lodviz::sparql::Query> parsed = [&] {
            ScopedSpan span(span_name("sparql.parse"));
            return lodviz::sparql::ParseQuery(r.text);
          }();
          const int64_t t1 = NowNs();
          if (!parsed.ok()) {
            out.tally.Add(Outcome::kHttpError);
            continue;
          }
          const lodviz::sparql::Query& query = *parsed;
          std::shared_ptr<const lodviz::sparql::QueryPlan> plan;
          {
            ScopedSpan span(span_name("sparql.plan"));
            const std::string key = lodviz::sparql::CanonicalQueryKey(query);
            const uint64_t fingerprint = lodviz::sparql::Fnv1a64(key);
            plan = cache.Lookup(fingerprint, key);
            if (plan == nullptr) {
              plan = std::make_shared<const lodviz::sparql::QueryPlan>(
                  engine.Plan(query));
              cache.Insert(fingerprint, key, *plan);
            }
          }
          const int64_t t2 = NowNs();
          Result<lodviz::sparql::ResultTable> table = [&] {
            ScopedSpan span(span_name(ExecuteSpanName(r.cls)));
            return engine.ExecutePlanned(query, *plan, nullptr, r.text);
          }();
          const int64_t t3 = NowNs();
          if (!table.ok()) {
            out.tally.Add(Outcome::kHttpError);
            continue;
          }
          std::string body;
          {
            ScopedSpan span(span_name("serve.serialize"));
            body = lodviz::serve::ResultTableJson(
                *table, query.form == lodviz::sparql::QueryForm::kAsk);
          }
          const int64_t t4 = NowNs();
          out.parse_ms += Ms(t1 - t0);
          out.plan_ms += Ms(t2 - t1);
          out.execute_ms += Ms(t3 - t2);
          out.serialize_ms += Ms(t4 - t3);
          const size_t cls = static_cast<size_t>(r.cls);
          out.class_execute_ms[cls] += Ms(t3 - t2);
          ++out.class_requests[cls];
          ++out.requests;

          auto it = reference.find(r.text);
          if (it == reference.end()) {
            Result<std::string> answer = MemoryAnswer(mem, r.text);
            it = reference
                     .emplace(r.text, answer.ok() ? *answer : std::string())
                     .first;
          }
          out.tally.Add(body == it->second ? Outcome::kOk
                                           : Outcome::kMismatch);
        }
      }
    } while (NowNs() < deadline);
  };
  lodviz::exec::ThreadPool pool(1);
  pool.Submit(replay);
  pool.Shutdown();
  return out;
}

ScopedCpuPin::ScopedCpuPin(size_t index) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
  }
  MoveTo(index);
}

ScopedCpuPin::~ScopedCpuPin() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void ScopedCpuPin::MoveTo(size_t index) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[index % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(q * static_cast<double>(v->size()));
  const size_t index =
      std::min(v->size() - 1, static_cast<size_t>(std::max(1.0, rank)) - 1);
  return (*v)[index];
}

StepSummary SummarizeSteps(const std::vector<StepSample>& steps,
                           double elapsed_s) {
  StepSummary out;
  if (steps.empty() || elapsed_s <= 0) return out;
  out.windows = std::clamp<size_t>(steps.size() / kMinWindowSteps, 1,
                                   kMaxWindows);
  const double width = elapsed_s / static_cast<double>(out.windows);
  std::vector<std::vector<double>> windows(out.windows);
  for (const StepSample& step : steps) {
    const size_t w = std::min(out.windows - 1,
                              static_cast<size_t>(step.end_s / width));
    windows[w].push_back(step.ms);
  }
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> per_s;
  for (std::vector<double>& w : windows) {
    per_s.push_back(static_cast<double>(w.size()) / width);
    if (w.empty()) continue;
    p50.push_back(Quantile(&w, 0.5));
    p90.push_back(Quantile(&w, 0.9));
  }
  out.p50_ms = Quantile(&p50, 0.5);
  out.p90_ms = Quantile(&p90, 0.5);
  out.per_s = Quantile(&per_s, 0.5);
  return out;
}

}  // namespace lodbench

#include "core/engine.h"

#include <algorithm>
#include <unordered_map>

#include "common/stopwatch.h"
#include "geo/projection.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "rdf/vocab.h"
#include "stats/histogram.h"
#include "stats/sampler.h"
#include "graph/layout.h"

namespace lodviz::core {

namespace {

constexpr int kCanvasWidth = 800;
constexpr int kCanvasHeight = 600;
constexpr uint64_t kSeed = 42;

/// Counts one invocation of a facade capability under
/// `core.engine.<capability>`. Facade calls are coarse (a load, a query, a
/// render), so the registry lookup per call is acceptable here.
void CountCapability(const char* capability) {
  obs::MetricRegistry::Global()
      .GetCounter(std::string("core.engine.") + capability)
      .Increment();
}

}  // namespace

Engine::Engine(Options options) : options_(std::move(options)) {
  // The journal is process-wide; the facade only arms it (see the Options
  // comment about the last engine winning).
  if (options_.slow_query_us >= 0) {
    obs::QueryLog::Global().SetThresholdMicros(options_.slow_query_us);
  }
}

void Engine::FinishLoad() {
  // Publish the loaded triples now rather than on the first read: the sort
  // is then part of the load, and the snapshot is built on the loading
  // thread, next to the dictionary and pending buffer it came from.
  store_.Compact();
  profile_.reset();
  keyword_.reset();
}

Status Engine::LoadNTriples(std::string_view document) {
  LODVIZ_TRACE_SPAN("core.engine.load_ntriples");
  CountCapability("load_ntriples");
  Stopwatch sw;
  Result<size_t> n = rdf::LoadNTriplesString(document, &store_);
  if (!n.ok()) return n.status();
  FinishLoad();
  session_.Record(explore::OpKind::kLoad, "ntriples", sw.ElapsedMillis(),
                  n.ValueOrDie());
  return Status::OK();
}

size_t Engine::LoadSynthetic(const workload::SyntheticLodOptions& options) {
  LODVIZ_TRACE_SPAN("core.engine.load_synthetic");
  CountCapability("load_synthetic");
  Stopwatch sw;
  size_t n = workload::GenerateSyntheticLod(options, &store_);
  FinishLoad();
  session_.Record(explore::OpKind::kLoad, "synthetic", sw.ElapsedMillis(), n);
  return n;
}

Result<std::vector<rdf::ParsedTriple>> Engine::QueryGraph(
    std::string_view sparql_text) {
  LODVIZ_TRACE_SPAN("core.engine.query_graph");
  CountCapability("query_graph");
  Stopwatch sw;
  sparql::QueryEngine query_engine(&store_);
  Result<std::vector<rdf::ParsedTriple>> result =
      query_engine.ExecuteGraphString(sparql_text);
  session_.Record(explore::OpKind::kQuery,
                  std::string(sparql_text.substr(0, 60)), sw.ElapsedMillis(),
                  result.ok() ? result->size() : 0);
  return result;
}

Status Engine::LoadTurtle(std::string_view document) {
  LODVIZ_TRACE_SPAN("core.engine.load_turtle");
  CountCapability("load_turtle");
  Stopwatch sw;
  Result<size_t> n = rdf::LoadTurtleString(document, &store_);
  if (!n.ok()) return n.status();
  FinishLoad();
  session_.Record(explore::OpKind::kLoad, "turtle", sw.ElapsedMillis(),
                  n.ValueOrDie());
  return Status::OK();
}

Result<sparql::ResultTable> Engine::Query(std::string_view sparql_text) {
  LODVIZ_TRACE_SPAN("core.engine.query");
  CountCapability("query");
  Stopwatch sw;
  sparql::QueryEngine query_engine(&store_);
  Result<sparql::ResultTable> result = query_engine.ExecuteString(sparql_text);
  session_.Record(explore::OpKind::kQuery,
                  std::string(sparql_text.substr(0, 60)), sw.ElapsedMillis(),
                  result.ok() ? result->num_rows() : 0);
  return result;
}

std::unique_ptr<serve::Frontend> Engine::MakeFrontend(
    const serve::FrontendOptions& frontend_options) {
  LODVIZ_TRACE_SPAN("core.engine.make_frontend");
  CountCapability("make_frontend");
  return std::make_unique<serve::Frontend>(&store_, frontend_options);
}

Result<std::string> Engine::ExplainQuery(std::string_view sparql_text) {
  LODVIZ_TRACE_SPAN("core.engine.explain_query");
  CountCapability("explain_query");
  Stopwatch sw;
  sparql::QueryEngine query_engine(&store_);
  Result<std::string> plan = query_engine.ExplainString(sparql_text);
  session_.Record(explore::OpKind::kQuery,
                  "explain: " + std::string(sparql_text.substr(0, 52)),
                  sw.ElapsedMillis(), plan.ok() ? 1 : 0);
  return plan;
}

Result<std::string> Engine::ExplainAnalyzeQuery(std::string_view sparql_text) {
  LODVIZ_TRACE_SPAN("core.engine.explain_analyze_query");
  CountCapability("explain_analyze_query");
  Stopwatch sw;
  sparql::QueryEngine query_engine(&store_);
  Result<std::string> report = query_engine.ExplainAnalyzeString(sparql_text);
  session_.Record(explore::OpKind::kQuery,
                  "explain analyze: " + std::string(sparql_text.substr(0, 44)),
                  sw.ElapsedMillis(), report.ok() ? 1 : 0);
  return report;
}

std::string Engine::SlowQueryLogJson() const {
  return obs::QueryLog::Global().ToJson();
}

Result<stats::DatasetProfile> Engine::Profile() {
  CountCapability("profile");
  if (!profile_.has_value()) {
    LODVIZ_ASSIGN_OR_RETURN(stats::DatasetProfile p,
                            stats::ProfileDataset(store_));
    profile_ = std::move(p);
  }
  return *profile_;
}

std::vector<rec::Recommendation> Engine::Recommend(size_t top_k) {
  CountCapability("recommend");
  Result<stats::DatasetProfile> profile = Profile();
  if (!profile.ok()) return {};
  return recommender_.Recommend(profile.ValueOrDie(), top_k);
}

Result<hier::HETree> Engine::BuildHierarchy(
    const std::string& property_iri, const hier::HETree::Options& options) {
  CountCapability("build_hierarchy");
  rdf::TermId pred = store_.dict().Lookup(rdf::Term::Iri(property_iri));
  if (pred == rdf::kInvalidTermId) {
    return Status::NotFound("property not in dataset: " + property_iri);
  }
  return hier::HETree::BuildFromProperty(store_, pred, options);
}

graph::Graph Engine::BuildGraph() const {
  CountCapability("build_graph");
  return graph::Graph::FromSource(store_);
}

explore::FacetedBrowser Engine::MakeBrowser() const {
  return explore::FacetedBrowser(&store_);
}

const explore::KeywordIndex& Engine::Keyword() {
  if (!keyword_.has_value()) {
    keyword_ = explore::KeywordIndex::Build(store_);
  }
  return *keyword_;
}

std::vector<explore::SearchHit> Engine::Search(const std::string& query,
                                               size_t top_k) {
  LODVIZ_TRACE_SPAN("core.engine.search");
  CountCapability("search");
  Stopwatch sw;
  std::vector<explore::SearchHit> hits = Keyword().Search(query, top_k);
  session_.Record(explore::OpKind::kKeywordSearch, query, sw.ElapsedMillis(),
                  hits.size());
  return hits;
}

std::vector<geo::Point> Engine::CollectPairs(const std::string& x_iri,
                                             const std::string& y_iri) const {
  const rdf::Dictionary& dict = store_.dict();
  rdf::TermId xp = dict.Lookup(rdf::Term::Iri(x_iri));
  rdf::TermId yp = dict.Lookup(rdf::Term::Iri(y_iri));
  if (xp == rdf::kInvalidTermId || yp == rdf::kInvalidTermId) return {};

  // Each subject's x value by id; a later x value of the same subject
  // overwrites an earlier one (the last in POS order wins). A flag, not a
  // NaN sentinel, marks presence: NaN is a valid xsd:double.
  std::vector<double> x_value(dict.size() + 1);
  std::vector<bool> has_x(dict.size() + 1);
  store_.ScanRuns({rdf::kInvalidTermId, xp, rdf::kInvalidTermId},
                  [&](const rdf::Triple* run, size_t n) {
                    for (size_t i = 0; i < n; ++i) {
                      Result<double> v = dict.NumberValue(run[i].o);
                      if (!v.ok()) continue;
                      x_value[run[i].s] = *v;
                      has_x[run[i].s] = true;
                    }
                    return true;
                  });
  std::vector<geo::Point> pairs;
  store_.ScanRuns({rdf::kInvalidTermId, yp, rdf::kInvalidTermId},
                  [&](const rdf::Triple* run, size_t n) {
                    for (size_t i = 0; i < n; ++i) {
                      if (!has_x[run[i].s]) continue;
                      Result<double> v = dict.NumberValue(run[i].o);
                      if (v.ok()) pairs.push_back({x_value[run[i].s], *v});
                    }
                    return true;
                  });
  return pairs;
}

std::vector<double> Engine::CollectValues(const std::string& iri) const {
  const rdf::Dictionary& dict = store_.dict();
  rdf::TermId pred = dict.Lookup(rdf::Term::Iri(iri));
  std::vector<double> values;
  if (pred == rdf::kInvalidTermId) return values;
  store_.Scan({rdf::kInvalidTermId, pred, rdf::kInvalidTermId},
              [&](const rdf::Triple& t) {
                Result<double> v = dict.ScalarValue(t.o);
                if (v.ok()) values.push_back(*v);
                return true;
              });
  return values;
}

namespace {

/// Applies the element budget by uniform sampling.
template <typename T>
void ApplyBudget(std::vector<T>* items, size_t budget, uint64_t seed) {
  if (budget == 0 || items->size() <= budget) return;
  stats::ReservoirSampler<T> sampler(budget, seed);
  for (const T& item : *items) sampler.Add(item);
  *items = sampler.sample();
}

}  // namespace

Result<ViewResult> Engine::Render(const viz::VisSpec& spec, bool with_svg) {
  LODVIZ_TRACE_SPAN("core.engine.render");
  CountCapability("render");
  Stopwatch sw;
  viz::Canvas canvas(kCanvasWidth, kCanvasHeight);
  ViewResult view;
  view.spec = spec;
  viz::SvgWriter svg(kCanvasWidth, kCanvasHeight);

  switch (spec.kind) {
    case viz::VisKind::kScatter:
    case viz::VisKind::kBubbleChart:
    case viz::VisKind::kCircles: {
      std::vector<geo::Point> pairs =
          CollectPairs(spec.x_property, spec.y_property);
      if (pairs.empty()) {
        return Status::NotFound("no (x, y) numeric pairs for scatter spec");
      }
      ApplyBudget(&pairs, options_.element_budget, kSeed);
      view.render = viz::RenderScatter(&canvas, pairs);
      if (with_svg) {
        geo::Rect b = geo::Rect::Empty();
        for (const auto& p : pairs) b.Expand(p);
        for (const auto& p : pairs) {
          svg.Circle((p.x - b.min_x) / std::max(1e-9, b.Width()),
                     (p.y - b.min_y) / std::max(1e-9, b.Height()), 2.0,
                     "#1f77b4", 0.6);
        }
      }
      break;
    }
    case viz::VisKind::kMap: {
      std::vector<geo::Point> coords =
          CollectPairs(rdf::vocab::kGeoLong, rdf::vocab::kGeoLat);
      if (coords.empty()) return Status::NotFound("no geo coordinates");
      std::vector<viz::GeoPoint> points;
      points.reserve(coords.size());
      for (const auto& p : coords) points.push_back({p.x, p.y});
      // Above the element budget, aggregate into cluster markers instead
      // of sampling: every point still contributes to a marker's size.
      if (options_.element_budget > 0 &&
          points.size() > options_.element_budget) {
        view.render = viz::RenderClusteredMap(&canvas, points, 48);
      } else {
        view.render = viz::RenderMap(&canvas, points);
      }
      if (with_svg) {
        for (const auto& gp : points) {
          geo::Point projected = geo::ProjectEquirectangular(gp.lon, gp.lat);
          svg.Circle(projected.x, projected.y, 1.5, "#d62728", 0.5);
        }
      }
      break;
    }
    case viz::VisKind::kTimeline: {
      std::vector<double> times = CollectValues(spec.x_property);
      if (times.empty()) return Status::NotFound("no temporal values");
      ApplyBudget(&times, options_.element_budget, kSeed);
      view.render = viz::RenderTimeline(&canvas, times);
      break;
    }
    case viz::VisKind::kChart:
    case viz::VisKind::kPie:
    case viz::VisKind::kStreamgraph: {
      // Histogram of the x property (aggregation: bounded elements
      // regardless of data size).
      std::vector<double> values = CollectValues(spec.x_property);
      if (values.empty()) {
        return Status::NotFound("no numeric values for chart spec");
      }
      size_t bins = spec.element_budget ? spec.element_budget : 40;
      LODVIZ_ASSIGN_OR_RETURN(
          stats::Histogram hist,
          stats::Histogram::Build(values, bins,
                                  stats::BinningKind::kEquiWidth));
      std::vector<double> counts;
      for (const auto& bin : hist.bins()) {
        counts.push_back(static_cast<double>(bin.count));
      }
      view.render = viz::RenderBars(&canvas, counts);
      view.render.input_size = values.size();
      if (with_svg) {
        double max_count = 1;
        for (double c : counts) max_count = std::max(max_count, c);
        for (size_t i = 0; i < counts.size(); ++i) {
          double w = 1.0 / counts.size();
          svg.Rect({i * w + 0.1 * w, 0.0, (i + 1) * w - 0.1 * w,
                    counts[i] / max_count},
                   "#2ca02c");
        }
      }
      break;
    }
    case viz::VisKind::kTreemap:
    case viz::VisKind::kTree:
    case viz::VisKind::kParallelCoords: {
      // Category counts as treemap weights.
      const std::string& prop = spec.x_property.empty()
                                    ? std::string(rdf::vocab::kRdfType)
                                    : spec.x_property;
      rdf::TermId pred = store_.dict().Lookup(rdf::Term::Iri(prop));
      if (pred == rdf::kInvalidTermId) {
        return Status::NotFound("no categorical property for treemap");
      }
      std::unordered_map<rdf::TermId, uint64_t> counts;
      store_.Scan({rdf::kInvalidTermId, pred, rdf::kInvalidTermId},
                  [&](const rdf::Triple& t) {
                    ++counts[t.o];
                    return true;
                  });
      std::vector<double> weights;
      for (const auto& [value, count] : counts) {
        weights.push_back(static_cast<double>(count));
      }
      if (weights.empty()) return Status::NotFound("no category counts");
      view.render = viz::RenderTreemap(&canvas, weights);
      if (with_svg) {
        auto cells = viz::SquarifiedTreemap(weights, {0, 0, 1, 1});
        for (const auto& cell : cells) {
          svg.Rect(cell.rect, "#9467bd", "#fff");
        }
      }
      break;
    }
    case viz::VisKind::kGraph: {
      graph::Graph g = BuildGraph();
      if (g.num_nodes() == 0) return Status::NotFound("no entity links");
      graph::ForceLayoutOptions lopts;
      lopts.seed = kSeed;
      lopts.iterations = g.num_nodes() > 2000 ? 15 : 40;
      graph::Layout layout = graph::ForceDirectedLayout(g, lopts);
      view.render = viz::RenderGraph(&canvas, g, layout);
      if (with_svg) {
        for (const auto& [u, v] : g.edges()) {
          svg.Line(layout[u].x, layout[u].y, layout[v].x, layout[v].y, "#999",
                   0.5, 0.4);
        }
        for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
          svg.Circle(layout[u].x, layout[u].y, 2.0, "#ff7f0e", 0.8);
        }
      }
      break;
    }
  }

  view.pixels_touched = canvas.pixels_touched();
  view.overplot_factor = canvas.OverplotFactor();
  view.hidden_fraction = canvas.HiddenMarkFraction();
  if (with_svg) view.svg = svg.ToString();
  session_.Record(explore::OpKind::kRender,
                  std::string(viz::VisKindName(spec.kind)), sw.ElapsedMillis(),
                  view.render.elements_drawn);
  return view;
}

}  // namespace lodviz::core

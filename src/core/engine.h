#ifndef LODVIZ_CORE_ENGINE_H_
#define LODVIZ_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>

#include "explore/facets.h"
#include "explore/keyword.h"
#include "explore/session.h"
#include "graph/graph.h"
#include "hier/hetree.h"
#include "rec/recommender.h"
#include "rdf/triple_source.h"
#include "rdf/triple_store.h"
#include "serve/frontend.h"
#include "sparql/engine.h"
#include "stats/profile.h"
#include "viz/canvas.h"
#include "viz/renderers.h"
#include "viz/svg.h"
#include "viz/types.h"
#include "workload/synthetic_lod.h"

namespace lodviz::core {

/// The outcome of rendering a visualization spec: what was drawn and how
/// crowded the raster got.
struct ViewResult {
  viz::VisSpec spec;
  viz::RenderStats render;
  uint64_t pixels_touched = 0;
  double overplot_factor = 0.0;
  double hidden_fraction = 0.0;
  /// SVG document when requested.
  std::string svg;
};

/// The lodviz facade: one object wiring the RDF store, SPARQL engine,
/// profiler, recommender, exploration services, and renderers — the
/// system Section 4 of the survey asks for, with every capability of
/// Tables 1 and 2 available behind one API.
class Engine {
 public:
  /// Renders draw on a fixed 800 x 600 canvas, and sampling, profiling and
  /// layout use one fixed seed, so a view is reproducible.
  struct Options {
    /// Data-reduction budget: specs rendering more objects than this get
    /// sampled/aggregated first (0 disables reduction).
    size_t element_budget = 50000;
    /// Slow-query journal threshold: queries at least this slow are
    /// captured in the process-wide obs::QueryLog (fingerprint, latency,
    /// row counts, profile summary). Negative leaves the journal disabled.
    /// Note the journal is a process-wide singleton: the last-constructed
    /// Engine's setting wins.
    int64_t slow_query_us = -1;
  };

  Engine() : Engine(Options()) {}
  explicit Engine(Options options);

  rdf::TripleStore& store() { return store_; }
  const rdf::TripleStore& store() const { return store_; }

  // ---- data in ----
  Status LoadNTriples(std::string_view document);
  size_t LoadSynthetic(const workload::SyntheticLodOptions& options);

  // ---- query & analysis ----
  Result<sparql::ResultTable> Query(std::string_view sparql_text);
  /// CONSTRUCT/DESCRIBE queries (triples out).
  Result<std::vector<rdf::ParsedTriple>> QueryGraph(
      std::string_view sparql_text);
  /// Renders the planner's logical plan (join order, per-pattern
  /// cardinality estimates) without executing;
  /// the explain entry point for explore sessions and the CLI.
  Result<std::string> ExplainQuery(std::string_view sparql_text);
  /// Executes with profiling on and renders per-operator estimated vs
  /// actual rows, invocations and wall time (EXPLAIN ANALYZE); works for
  /// all query forms.
  Result<std::string> ExplainAnalyzeQuery(std::string_view sparql_text);
  /// Builds a serving Frontend (plan cache + admission control +
  /// serialization) over the store — the object tools/ and tests hand to
  /// serve::Server. The Frontend borrows the Engine's store, so the Engine
  /// must outlive it, and loads belong before serving starts: cached plans
  /// assume the data they were planned on (the serving layer assumes an
  /// immutable snapshot, like sparql::QueryEngine itself).
  std::unique_ptr<serve::Frontend> MakeFrontend(
      const serve::FrontendOptions& frontend_options =
          serve::FrontendOptions());
  /// JSON dump of the process-wide slow-query journal (see
  /// obs::QueryLog::ToJson); entries accumulate once Options::slow_query_us
  /// is non-negative.
  std::string SlowQueryLogJson() const;
  /// Loads a Turtle document.
  Status LoadTurtle(std::string_view document);
  /// Dataset profile (computed once, invalidated on load).
  Result<stats::DatasetProfile> Profile();
  std::vector<rec::Recommendation> Recommend(size_t top_k = 5);
  rec::Recommender& recommender() { return recommender_; }

  // ---- structures ----
  Result<hier::HETree> BuildHierarchy(const std::string& property_iri,
                                      const hier::HETree::Options& options);
  graph::Graph BuildGraph() const;

  // ---- exploration services ----
  explore::FacetedBrowser MakeBrowser() const;
  const explore::KeywordIndex& Keyword();
  std::vector<explore::SearchHit> Search(const std::string& query,
                                         size_t top_k = 10);

  // ---- rendering ----
  /// Renders `spec` headlessly; set `with_svg` to also emit SVG.
  Result<ViewResult> Render(const viz::VisSpec& spec, bool with_svg = false);
  /// The (x, y) finite numeric pairs a scatter plots: one per finite y
  /// triple, in POS order, whose subject has a finite x value (its last
  /// in POS order).
  std::vector<geo::Point> CollectPairs(const std::string& x_iri,
                                       const std::string& y_iri) const;

  explore::SessionLog& session() { return session_; }
  const Options& options() const { return options_; }

 private:
  /// Ends every load: publishes the store's snapshot and drops the state
  /// derived from the old data.
  void FinishLoad();
  std::vector<double> CollectValues(const std::string& iri) const;

  Options options_;
  rdf::TripleStore store_;
  rec::Recommender recommender_;
  explore::SessionLog session_;
  std::optional<stats::DatasetProfile> profile_;
  std::optional<explore::KeywordIndex> keyword_;
};

}  // namespace lodviz::core

#endif  // LODVIZ_CORE_ENGINE_H_

#ifndef LODVIZ_CORE_ENGINE_H_
#define LODVIZ_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>

#include "explore/facets.h"
#include "explore/keyword.h"
#include "explore/session.h"
#include "graph/graph.h"
#include "graph/supergraph.h"
#include "hier/hetree.h"
#include "rec/recommender.h"
#include "rdf/streaming.h"
#include "rdf/triple_source.h"
#include "rdf/triple_store.h"
#include "serve/frontend.h"
#include "sparql/engine.h"
#include "storage/disk_source_adapter.h"
#include "storage/disk_triple_store.h"
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
  /// Which TripleSource queries execute against. Data always loads into
  /// the in-memory store (it owns the dictionary and feeds the non-query
  /// subsystems); with kDisk, queries run over a disk-resident mirror
  /// behind a bounded buffer pool instead — same results, bounded memory.
  enum class Backend { kMemory, kDisk };

  struct Options {
    int canvas_width = 800;
    int canvas_height = 600;
    /// Data-reduction budget: specs rendering more objects than this get
    /// sampled/aggregated first (0 disables reduction).
    size_t element_budget = 50000;
    uint64_t seed = 42;
    /// Query backend; kDisk mirrors loaded triples into a DiskTripleStore
    /// (rebuilt lazily after loads) and queries through it.
    Backend backend = Backend::kMemory;
    /// Page-file path for the disk backend (a default name in the working
    /// directory when empty).
    std::string disk_path;
    /// Buffer-pool size (pages) for the disk backend.
    size_t pool_pages = 256;
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
  size_t IngestStream(rdf::StreamSource* source, size_t batch_size);

  // ---- query & analysis ----
  Result<sparql::ResultTable> Query(std::string_view sparql_text);
  /// CONSTRUCT/DESCRIBE queries (triples out).
  Result<std::vector<rdf::ParsedTriple>> QueryGraph(
      std::string_view sparql_text);
  /// Renders the planner's logical plan (join order, per-pattern
  /// cardinality estimates) for the active backend without executing;
  /// the explain entry point for explore sessions and the CLI.
  Result<std::string> ExplainQuery(std::string_view sparql_text);
  /// Executes with profiling on and renders per-operator estimated vs
  /// actual rows, invocations and wall time (EXPLAIN ANALYZE); works for
  /// all query forms on either backend.
  Result<std::string> ExplainAnalyzeQuery(std::string_view sparql_text);
  /// Builds a serving Frontend (plan cache + admission control +
  /// serialization) over the active backend — the object tools/ and
  /// tests hand to serve::Server. The Frontend borrows the Engine's
  /// TripleSource, so the Engine must outlive it, and loads performed
  /// after construction are not visible through it (the serving layer
  /// assumes an immutable snapshot, like sparql::QueryEngine itself).
  Result<std::unique_ptr<serve::Frontend>> MakeFrontend(
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
  graph::GraphHierarchy BuildGraphHierarchy(
      const graph::GraphHierarchy::Options& options) const;

  // ---- exploration services ----
  explore::FacetedBrowser MakeBrowser() const;
  const explore::KeywordIndex& Keyword();
  std::vector<explore::SearchHit> Search(const std::string& query,
                                         size_t top_k = 10);

  // ---- rendering ----
  /// Renders `spec` headlessly; set `with_svg` to also emit SVG.
  Result<ViewResult> Render(const viz::VisSpec& spec, bool with_svg = false);

  explore::SessionLog& session() { return session_; }
  const Options& options() const { return options_; }

 private:
  /// Ends every load: publishes the store's snapshot and drops the state
  /// derived from the old data.
  void FinishLoad();
  /// The TripleSource queries run against: the in-memory store, or the
  /// (lazily rebuilt) disk mirror for Backend::kDisk.
  Result<const rdf::TripleSource*> ActiveSource();
  /// Rebuilds the disk mirror from the in-memory store. The store only
  /// ever serves deduplicated snapshots, so both backends hold identical
  /// data — the parity contract.
  Status RebuildDiskMirror();
  /// (x, y) numeric pairs per subject for two properties.
  std::vector<geo::Point> CollectPairs(const std::string& x_iri,
                                       const std::string& y_iri) const;
  std::vector<double> CollectValues(const std::string& iri) const;

  Options options_;
  rdf::TripleStore store_;
  rec::Recommender recommender_;
  explore::SessionLog session_;
  std::optional<stats::DatasetProfile> profile_;
  std::optional<explore::KeywordIndex> keyword_;

  /// Disk backend state (Backend::kDisk only).
  std::unique_ptr<storage::DiskTripleStore> disk_store_;
  std::unique_ptr<storage::DiskSourceAdapter> disk_source_;
  bool disk_dirty_ = true;
};

}  // namespace lodviz::core

#endif  // LODVIZ_CORE_ENGINE_H_

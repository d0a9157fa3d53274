#include "core/archetype.h"

#include <cstdio>
#include <unistd.h>

#include "explore/progressive.h"
#include "hier/hetree.h"
#include "sparql/engine.h"
#include "stats/sampler.h"
#include "storage/disk_source_adapter.h"
#include "storage/disk_triple_store.h"
#include "workload/synthetic_lod.h"

namespace lodviz::core {

ArchetypeAdapter::ArchetypeAdapter(const SurveyedSystem& system,
                                   Engine* engine)
    : system_(system), engine_(engine) {}

Result<ProbeResult> ArchetypeAdapter::Probe(Capability capability) {
  ProbeResult result;
  result.capability = capability;
  if (!HasCapability(system_.caps, capability)) {
    return Status::Unimplemented(system_.name + " does not support " +
                                 std::string(CapabilityName(capability)));
  }
  Result<uint64_t> evidence = Status::Internal("probe not run");
  switch (capability) {
    case Capability::kKeywordSearch:
      evidence = RunKeywordSearch();
      break;
    case Capability::kFilter:
      evidence = RunFilter();
      break;
    case Capability::kSampling:
      evidence = RunSampling();
      break;
    case Capability::kAggregation:
      evidence = RunAggregation();
      break;
    case Capability::kIncremental:
      evidence = RunIncremental();
      break;
    case Capability::kDiskBased:
      evidence = RunDiskBased();
      break;
    case Capability::kRecommendation:
      evidence = RunRecommendation();
      break;
    case Capability::kPreferences:
      evidence = RunPreferences();
      break;
    case Capability::kStatistics:
      evidence = RunStatistics();
      break;
  }
  if (!evidence.ok()) return evidence.status();
  result.executed = true;
  result.evidence = evidence.ValueOrDie();
  return result;
}

Result<uint64_t> ArchetypeAdapter::RunKeywordSearch() {
  std::vector<explore::SearchHit> hits = engine_->Search("ancient", 10);
  if (hits.empty()) return Status::NotFound("keyword probe found nothing");
  return hits.size();
}

Result<uint64_t> ArchetypeAdapter::RunFilter() {
  // A FILTERed SPARQL query: real filtering machinery.
  LODVIZ_ASSIGN_OR_RETURN(
      sparql::ResultTable table,
      engine_->Query("SELECT ?s WHERE { ?s <" +
                     std::string(workload::lod::kAge) +
                     "> ?a . FILTER(?a > 50) } LIMIT 25"));
  return table.num_rows();
}

Result<uint64_t> ArchetypeAdapter::RunSampling() {
  stats::ReservoirSampler<rdf::Triple> sampler(100, 7);
  engine_->store().Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    sampler.Add(t);
    return true;
  });
  if (sampler.sample().empty()) return Status::NotFound("nothing to sample");
  return sampler.sample().size();
}

Result<uint64_t> ArchetypeAdapter::RunAggregation() {
  hier::HETree::Options opts;
  opts.lazy = true;
  LODVIZ_ASSIGN_OR_RETURN(
      hier::HETree tree,
      engine_->BuildHierarchy(workload::lod::kAge, opts));
  return tree.Children(tree.root()).size();
}

Result<uint64_t> ArchetypeAdapter::RunIncremental() {
  std::vector<double> values;
  engine_->store().Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    Result<double> v = engine_->store().dict().NumberValue(t.o);
    if (v.ok()) values.push_back(v.ValueOrDie());
    return true;
  });
  if (values.size() < 100) return Status::NotFound("too few numeric values");
  std::vector<explore::ProgressiveEstimate> trajectory =
      explore::RunProgressive(values, values.size() / 20, 0.05, 3);
  return trajectory.size();
}

Result<uint64_t> ArchetypeAdapter::RunDiskBased() {
  // Mirror the store to disk and run the same SPARQL query against both
  // backends through the shared TripleSource contract: the disk-based
  // archetype is only satisfied if out-of-core execution returns the
  // identical result table.
  std::string path = "/tmp/lodviz_archetype_" + std::to_string(::getpid()) +
                     ".db";
  rdf::TripleStore& store = engine_->store();
  std::vector<rdf::Triple> triples;
  store.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    triples.push_back(t);
    return true;
  });
  LODVIZ_ASSIGN_OR_RETURN(std::unique_ptr<storage::DiskTripleStore> disk,
                          storage::DiskTripleStore::Create(path, 32));
  Status loaded = disk->BulkLoad(triples);
  if (!loaded.ok()) {
    std::remove(path.c_str());
    return loaded;
  }
  storage::DiskSourceAdapter adapter(disk.get(), &store.dict());

  constexpr std::string_view kProbe =
      "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 200";
  sparql::QueryEngine mem_engine(&store);
  sparql::QueryEngine disk_engine(&adapter);
  Result<sparql::ResultTable> mem_rows = mem_engine.ExecuteString(kProbe);
  Result<sparql::ResultTable> disk_rows = disk_engine.ExecuteString(kProbe);
  std::remove(path.c_str());
  if (!mem_rows.ok()) return mem_rows.status();
  if (!disk_rows.ok()) return disk_rows.status();
  const sparql::ResultTable& mem_table = mem_rows.ValueOrDie();
  const sparql::ResultTable& disk_table = disk_rows.ValueOrDie();
  if (mem_table.ToString(mem_table.num_rows()) !=
      disk_table.ToString(disk_table.num_rows())) {
    return Status::Internal("disk backend diverged from memory backend");
  }
  if (disk_table.num_rows() == 0) {
    return Status::NotFound("disk store is empty");
  }
  return disk_table.num_rows();
}

Result<uint64_t> ArchetypeAdapter::RunRecommendation() {
  std::vector<rec::Recommendation> recs = engine_->Recommend(5);
  if (recs.empty()) return Status::NotFound("no recommendations produced");
  return recs.size();
}

Result<uint64_t> ArchetypeAdapter::RunPreferences() {
  // Preferences must actually change the ranking.
  std::vector<rec::Recommendation> before = engine_->Recommend(3);
  if (before.empty()) return Status::NotFound("no recommendations");
  viz::VisKind demoted = before.front().spec.kind;
  rec::Recommender& recommender = engine_->recommender();
  double saved = recommender.preference(demoted);
  recommender.SetPreference(demoted, 0.25);
  std::vector<rec::Recommendation> after = engine_->Recommend(3);
  recommender.SetPreference(demoted, saved);
  if (after.empty()) return Status::NotFound("no recommendations after");
  if (after.front().spec.kind == demoted && after.size() > 1) {
    return Status::Internal("preference had no effect on ranking");
  }
  return after.size();
}

Result<uint64_t> ArchetypeAdapter::RunStatistics() {
  LODVIZ_ASSIGN_OR_RETURN(stats::DatasetProfile profile, engine_->Profile());
  if (profile.properties.empty()) return Status::NotFound("empty profile");
  return profile.properties.size();
}

}  // namespace lodviz::core

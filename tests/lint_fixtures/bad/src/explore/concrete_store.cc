// LINT-EXPECT: sparql.no_concrete_store
// An exploration module pinned to the in-memory store: outside the store
// owners (src/rdf, src/storage, src/core, src/workload) every module reads
// through the abstract rdf::TripleSource contract, so it runs unchanged
// over the disk backend.

namespace lodviz::rdf {
class TripleStore;
}  // namespace lodviz::rdf

namespace lodviz::explore {

// Bad: a facet counter that only accepts the memory store.
int CountFacets(const rdf::TripleStore& store);

}  // namespace lodviz::explore

#ifndef LODVIZ_EXPLORE_BROWSER_H_
#define LODVIZ_EXPLORE_BROWSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/triple_source.h"

namespace lodviz::explore {

/// One property-value row of a resource view.
struct PropertyRow {
  rdf::TermId predicate = rdf::kInvalidTermId;
  std::string predicate_label;
  rdf::Term value;
  /// Set when the value is an IRI/blank that can be navigated to.
  rdf::TermId link = rdf::kInvalidTermId;
};

/// Everything a WoD browser shows about one resource (the Disco/Tabulator
/// "HTML table with property-value pairs" of Section 3.1).
struct ResourceView {
  rdf::TermId resource = rdf::kInvalidTermId;
  std::string iri;
  std::string label;  ///< rdfs:label if present, else the IRI
  std::vector<PropertyRow> outgoing;
  /// (subject, predicate) pairs pointing *at* this resource.
  std::vector<std::pair<rdf::TermId, rdf::TermId>> incoming;
};

/// Link-navigation resource browser (Haystack, Disco, Tabulator,
/// LodLive): describe a resource, follow links, go back — the most basic
/// WoD exploration workflow, here over the shared triple source.
class ResourceBrowser {
 public:
  explicit ResourceBrowser(const rdf::TripleSource* source) : source_(source) {}

  /// Describes a resource without touching navigation history.
  Result<ResourceView> Describe(rdf::TermId resource) const;

  /// Navigates to a resource (pushes onto the history).
  Result<ResourceView> Navigate(rdf::TermId resource);

  /// Returns to the previous resource; error at the start of history.
  Result<ResourceView> Back();

  const std::vector<rdf::TermId>& history() const { return history_; }
  /// Resource currently shown (kInvalidTermId before first Navigate).
  rdf::TermId current() const {
    return position_ == 0 ? rdf::kInvalidTermId : history_[position_ - 1];
  }

  /// ASCII rendering of a view (examples/CLI).
  std::string Render(const ResourceView& view, size_t max_rows = 25) const;

 private:
  const rdf::TripleSource* source_;
  std::vector<rdf::TermId> history_;
  size_t position_ = 0;  // number of valid entries
};

}  // namespace lodviz::explore

#endif  // LODVIZ_EXPLORE_BROWSER_H_

#include "explore/browser.h"

#include <algorithm>
#include <sstream>

#include "rdf/vocab.h"

namespace lodviz::explore {

Result<ResourceView> ResourceBrowser::Describe(rdf::TermId resource) const {
  const rdf::Dictionary& dict = source_->dict();
  if (!dict.Contains(resource)) {
    return Status::NotFound("unknown resource id " + std::to_string(resource));
  }
  ResourceView view;
  view.resource = resource;
  view.iri = dict.term(resource).lexical;
  view.label = view.iri;

  rdf::TermId label_pred = dict.Lookup(rdf::Term::Iri(rdf::vocab::kRdfsLabel));
  source_->Scan({resource, rdf::kInvalidTermId, rdf::kInvalidTermId},
                [&](const rdf::Triple& t) {
                  PropertyRow row;
                  row.predicate = t.p;
                  row.predicate_label = dict.term(t.p).lexical;
                  row.value = dict.term(t.o);
                  if (row.value.is_iri() || row.value.is_blank()) {
                    row.link = t.o;
                  }
                  if (t.p == label_pred) view.label = row.value.lexical;
                  view.outgoing.push_back(std::move(row));
                  return true;
                });
  source_->Scan({rdf::kInvalidTermId, rdf::kInvalidTermId, resource},
                [&](const rdf::Triple& t) {
                  view.incoming.emplace_back(t.s, t.p);
                  return true;
                });
  std::sort(view.outgoing.begin(), view.outgoing.end(),
            [](const PropertyRow& a, const PropertyRow& b) {
              return a.predicate_label < b.predicate_label;
            });
  return view;
}

Result<ResourceView> ResourceBrowser::Navigate(rdf::TermId resource) {
  LODVIZ_ASSIGN_OR_RETURN(ResourceView view, Describe(resource));
  history_.resize(position_);  // drop any forward entries
  history_.push_back(resource);
  position_ = history_.size();
  return view;
}

Result<ResourceView> ResourceBrowser::Back() {
  if (position_ <= 1) {
    return Status::OutOfRange("already at the start of history");
  }
  --position_;
  return Describe(history_[position_ - 1]);
}

std::string ResourceBrowser::Render(const ResourceView& view,
                                    size_t max_rows) const {
  std::ostringstream oss;
  oss << view.label << "  <" << view.iri << ">\n";
  size_t shown = 0;
  for (const PropertyRow& row : view.outgoing) {
    if (shown++ >= max_rows) {
      oss << "  ... (" << view.outgoing.size() - max_rows << " more)\n";
      break;
    }
    oss << "  " << row.predicate_label << " -> " << row.value.ToNTriples()
        << (row.link != rdf::kInvalidTermId ? "  [navigable]" : "") << "\n";
  }
  oss << "  (" << view.incoming.size() << " incoming links)\n";
  return oss.str();
}

}  // namespace lodviz::explore

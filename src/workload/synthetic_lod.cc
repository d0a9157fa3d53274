#include "workload/synthetic_lod.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "rdf/ntriples.h"
#include "rdf/vocab.h"

namespace lodviz::workload {

namespace {

const char* kAdjectives[] = {"ancient", "blue",  "coastal", "digital",
                             "eastern", "famous", "grand",   "hidden",
                             "iron",    "jade",   "keen",    "lunar"};
const char* kNouns[] = {"archive", "bridge", "citadel", "delta",
                        "engine",  "forest", "garden",  "harbor",
                        "island",  "junction", "keep",   "library"};

struct Generator {
  const SyntheticLodOptions& options;
  Rng rng;
  ZipfSampler category_zipf;
  // Preferential-attachment endpoint pool for knows edges.
  std::vector<uint64_t> pool;

  explicit Generator(const SyntheticLodOptions& opts)
      : options(opts),
        rng(opts.seed),
        category_zipf(std::max(1, opts.num_categories),
                      opts.category_zipf_alpha) {}

  std::string EntityIri(uint64_t i) const {
    return lod::kEntityPrefix + std::to_string(i);
  }

  void Emit(std::vector<rdf::ParsedTriple>* out, rdf::Term s, rdf::Term p,
            rdf::Term o) {
    out->push_back({std::move(s), std::move(p), std::move(o)});
  }

  void GenerateEntity(uint64_t i, std::vector<rdf::ParsedTriple>* out) {
    using rdf::Term;
    Term subject = Term::Iri(EntityIri(i));

    const char* type = nullptr;
    switch (i % 3) {
      case 0:
        type = lod::kPerson;
        break;
      case 1:
        type = lod::kPlace;
        break;
      default:
        type = lod::kOrganization;
    }
    if (options.with_types) {
      Emit(out, subject, Term::Iri(rdf::vocab::kRdfType), Term::Iri(type));
    }
    if (options.with_labels) {
      std::string label = std::string(kAdjectives[rng.Uniform(12)]) + " " +
                          kNouns[rng.Uniform(12)] + " " + std::to_string(i);
      Emit(out, subject, Term::Iri(rdf::vocab::kRdfsLabel),
           Term::LangLiteral(label, "en"));
    }
    if (options.with_numeric) {
      double age = std::clamp(rng.Normal(40.0, 12.0), 0.0, 100.0);
      Emit(out, subject, Term::Iri(lod::kAge),
           Term::DoubleLiteral(std::round(age * 10.0) / 10.0));
    }
    if (options.with_dates) {
      // 2000-01-01 = 946684800; 16 years of seconds.
      int64_t t = 946684800 +
                  static_cast<int64_t>(rng.Uniform(16ULL * 365 * 86400));
      Emit(out, subject, Term::Iri(lod::kCreated), Term::DateTimeLiteral(t));
    }
    if (options.with_geo) {
      // Clustered around 5 hubs to mimic real geographic skew.
      static constexpr double kHubs[5][2] = {{40.7, -74.0},
                                             {51.5, -0.1},
                                             {37.9, 23.7},
                                             {-37.8, 144.9},
                                             {35.7, 139.7}};
      const double* hub = kHubs[rng.Uniform(5)];
      double lat = std::clamp(hub[0] + rng.Normal(0.0, 2.0), -89.9, 89.9);
      double lon = std::clamp(hub[1] + rng.Normal(0.0, 2.0), -179.9, 179.9);
      Emit(out, subject, Term::Iri(rdf::vocab::kGeoLat),
           Term::DoubleLiteral(lat));
      Emit(out, subject, Term::Iri(rdf::vocab::kGeoLong),
           Term::DoubleLiteral(lon));
    }
    if (options.with_category) {
      uint64_t cat = category_zipf.Sample(rng);
      Emit(out, subject, Term::Iri(lod::kCategory),
           Term::Iri(lod::kCategoryPrefix + std::to_string(cat)));
    }
    // Entity links with preferential attachment (heavy-tailed in-degree).
    if (i > 0 && options.links_per_entity > 0) {
      int links = static_cast<int>(options.links_per_entity);
      double frac = options.links_per_entity - links;
      if (rng.Bernoulli(frac)) ++links;
      for (int l = 0; l < links; ++l) {
        uint64_t target = pool.empty() ? rng.Uniform(i)
                                       : pool[rng.Uniform(pool.size())];
        if (target == i) continue;
        Emit(out, subject, Term::Iri(lod::kKnows),
             Term::Iri(EntityIri(target)));
        pool.push_back(i);
        pool.push_back(target);
        // Bound pool growth for very large datasets.
        if (pool.size() > 1u << 20) {
          pool[rng.Uniform(pool.size())] = target;
          pool.pop_back();
        }
      }
    }
  }
};

}  // namespace

size_t GenerateSyntheticLod(const SyntheticLodOptions& options,
                            rdf::TripleStore* store) {
  Generator gen(options);
  size_t total = 0;
  std::vector<rdf::ParsedTriple> buffer;
  for (uint64_t i = 0; i < options.num_entities; ++i) {
    buffer.clear();
    gen.GenerateEntity(i, &buffer);
    for (const rdf::ParsedTriple& pt : buffer) {
      store->Add(pt.subject, pt.predicate, pt.object);
    }
    total += buffer.size();
  }
  return total;
}

}  // namespace lodviz::workload

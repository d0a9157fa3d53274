#ifndef LODVIZ_CORE_REGISTRY_H_
#define LODVIZ_CORE_REGISTRY_H_

#include <string>
#include <vector>

#include "core/capabilities.h"
#include "viz/types.h"

namespace lodviz::core {

/// One row of the survey's comparison tables: a surveyed system modeled
/// as a profile of data types, visualization types, and capabilities.
struct SurveyedSystem {
  std::string name;
  int year = 0;
  /// 1 = generic visualization systems, 2 = graph-based systems.
  int table = 0;
  std::string domain;    // "generic" / "ontology"
  std::string app_type;  // "Web" / "Desktop"
  std::vector<viz::DataType> data_types;  // Table 1 only
  std::vector<viz::VisKind> vis_types;    // Table 1 only
  CapabilitySet caps = kNoCapabilities;
};

/// The 11 rows of Table 1 (generic visualization systems), as published.
const std::vector<SurveyedSystem>& Table1Systems();

/// The 21 rows of Table 2 (graph-based visualization systems), as
/// published.
const std::vector<SurveyedSystem>& Table2Systems();

/// lodviz itself as a row (for the "this work" line the benches append):
/// all capability columns on.
SurveyedSystem LodvizSystem(int table);

}  // namespace lodviz::core

#endif  // LODVIZ_CORE_REGISTRY_H_

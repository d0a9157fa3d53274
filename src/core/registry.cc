#include "core/registry.h"

namespace lodviz::core {

namespace {

using viz::DataType;
using viz::VisKind;
using C = Capability;

using DT = std::vector<DataType>;
using VT = std::vector<VisKind>;

constexpr DataType N = DataType::kNumeric;
constexpr DataType T = DataType::kTemporal;
constexpr DataType S = DataType::kSpatial;
constexpr DataType H = DataType::kHierarchical;
constexpr DataType G = DataType::kGraph;

constexpr VisKind B = VisKind::kBubbleChart;
constexpr VisKind Ch = VisKind::kChart;
constexpr VisKind CI = VisKind::kCircles;
constexpr VisKind Gr = VisKind::kGraph;
constexpr VisKind M = VisKind::kMap;
constexpr VisKind P = VisKind::kPie;
constexpr VisKind PC = VisKind::kParallelCoords;
constexpr VisKind Sc = VisKind::kScatter;
constexpr VisKind SG = VisKind::kStreamgraph;
constexpr VisKind Tm = VisKind::kTreemap;
constexpr VisKind TL = VisKind::kTimeline;
constexpr VisKind TR = VisKind::kTree;

SurveyedSystem Sys1(std::string name, int year, DT data, VT vis,
                    CapabilitySet caps) {
  SurveyedSystem s;
  s.name = std::move(name);
  s.year = year;
  s.table = 1;
  s.domain = "generic";
  s.app_type = "Web";
  s.data_types = std::move(data);
  s.vis_types = std::move(vis);
  s.caps = caps;
  return s;
}

SurveyedSystem Sys2(std::string name, int year, std::string domain,
                    std::string app, CapabilitySet caps) {
  SurveyedSystem s;
  s.name = std::move(name);
  s.year = year;
  s.table = 2;
  s.domain = std::move(domain);
  s.app_type = std::move(app);
  s.caps = caps;
  return s;
}

}  // namespace

const std::vector<SurveyedSystem>& Table1Systems() {
  // Rows exactly as in the paper's Table 1 (Generic Visualization Systems).
  static const std::vector<SurveyedSystem> kTable = {
      Sys1("Rhizomer", 2006, {N, T, S, H, G}, {Ch, M, Tm, TL},
           Caps(C::kRecommendation)),
      Sys1("VizBoard", 2009, {N, H}, {Ch, Sc, Tm},
           Caps(C::kRecommendation, C::kPreferences, C::kSampling)),
      Sys1("LODWheel", 2011, {N, S, G}, {Ch, Gr, M, P}, Caps()),
      Sys1("SemLens", 2011, {N}, {Sc}, Caps(C::kPreferences)),
      Sys1("LDVM", 2013, {S, H, G}, {B, M, Tm, TR},
           Caps(C::kRecommendation)),
      Sys1("Payola", 2013, {N, T, S, H, G}, {Ch, CI, Gr, M, Tm, TL, TR},
           Caps()),
      Sys1("LDVizWiz", 2014, {S, H, G}, {M, P, TR},
           Caps(C::kRecommendation)),
      Sys1("SynopsViz", 2014, {N, T, H}, {Ch, P, Tm, TL},
           Caps(C::kRecommendation, C::kPreferences, C::kStatistics,
                C::kAggregation, C::kIncremental, C::kDiskBased)),
      Sys1("Vis Wizard", 2014, {N, T, S}, {B, Ch, M, P, PC, SG},
           Caps(C::kRecommendation, C::kPreferences)),
      Sys1("LinkDaViz", 2015, {N, T, S}, {B, Ch, Sc, M, P},
           Caps(C::kRecommendation, C::kPreferences)),
      Sys1("ViCoMap", 2015, {N, T, S}, {M}, Caps(C::kStatistics)),
  };
  return kTable;
}

const std::vector<SurveyedSystem>& Table2Systems() {
  // Rows exactly as in the paper's Table 2 (Graph-based Visualization
  // Systems), including the ontology-visualization rows.
  static const std::vector<SurveyedSystem> kTable = {
      Sys2("RDF-Gravity", 2003, "generic", "Desktop",
           Caps(C::kKeywordSearch, C::kFilter)),
      Sys2("IsaViz", 2003, "generic", "Desktop",
           Caps(C::kKeywordSearch, C::kFilter)),
      Sys2("RDF graph visualizer", 2004, "generic", "Desktop",
           Caps(C::kKeywordSearch)),
      Sys2("GrOWL", 2007, "ontology", "Desktop",
           Caps(C::kKeywordSearch, C::kFilter, C::kSampling)),
      Sys2("NodeTrix", 2007, "ontology", "Desktop", Caps(C::kAggregation)),
      Sys2("PGV", 2007, "generic", "Desktop",
           Caps(C::kIncremental, C::kDiskBased)),
      Sys2("Fenfire", 2008, "generic", "Desktop", Caps()),
      Sys2("Gephi", 2009, "generic", "Desktop",
           Caps(C::kFilter, C::kSampling, C::kAggregation)),
      Sys2("Trisolda", 2010, "generic", "Desktop",
           Caps(C::kSampling, C::kAggregation, C::kIncremental)),
      Sys2("Cytospace", 2010, "generic", "Desktop",
           Caps(C::kKeywordSearch, C::kFilter, C::kSampling, C::kAggregation,
                C::kDiskBased)),
      Sys2("FlexViz", 2010, "ontology", "Web",
           Caps(C::kKeywordSearch, C::kFilter)),
      Sys2("RelFinder", 2010, "generic", "Web", Caps()),
      Sys2("ZoomRDF", 2010, "generic", "Desktop",
           Caps(C::kSampling, C::kAggregation, C::kIncremental)),
      Sys2("KC-Viz", 2011, "ontology", "Desktop", Caps(C::kSampling)),
      Sys2("LODWheel", 2011, "generic", "Web",
           Caps(C::kFilter, C::kAggregation)),
      Sys2("GLOW", 2012, "ontology", "Desktop",
           Caps(C::kSampling, C::kAggregation)),
      Sys2("Lodlive", 2012, "generic", "Web", Caps(C::kKeywordSearch)),
      Sys2("OntoTrix", 2013, "ontology", "Desktop",
           Caps(C::kSampling, C::kAggregation)),
      Sys2("LODeX", 2014, "generic", "Web",
           Caps(C::kSampling, C::kAggregation)),
      Sys2("VOWL 2", 2014, "ontology", "Web", Caps()),
      Sys2("graphVizdb", 2015, "generic", "Web",
           Caps(C::kKeywordSearch, C::kFilter, C::kSampling, C::kDiskBased)),
  };
  return kTable;
}

SurveyedSystem LodvizSystem(int table) {
  SurveyedSystem s;
  s.name = "lodviz (this work)";
  s.year = 2016;
  s.table = table;
  s.domain = "generic";
  s.app_type = "Library";
  s.data_types = {N, T, S, H, G};
  s.vis_types = {B, Ch, CI, Gr, M, P, PC, Sc, SG, Tm, TL, TR};
  s.caps = Caps(C::kKeywordSearch, C::kFilter, C::kSampling, C::kAggregation,
                C::kIncremental, C::kDiskBased, C::kRecommendation,
                C::kPreferences, C::kStatistics);
  return s;
}

}  // namespace lodviz::core

#ifndef LODVIZ_CORE_ARCHETYPE_H_
#define LODVIZ_CORE_ARCHETYPE_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/registry.h"

namespace lodviz::core {

/// The outcome of exercising one capability through an archetype.
struct ProbeResult {
  Capability capability;
  /// True when the probe actually executed (flag on and operation ran);
  /// false when the archetype refuses it (flag off).
  bool executed = false;
  /// Evidence: objects touched / results produced by the probe.
  uint64_t evidence = 0;
};

/// Wraps the lodviz engine behind a surveyed system's capability profile:
/// operations whose column is blank in the paper's table return
/// Unimplemented; operations with a check mark run for real through the
/// corresponding lodviz component. Regenerating Tables 1/2 from these
/// probes makes every check mark in our output *executed*, not asserted.
class ArchetypeAdapter {
 public:
  /// `engine` must outlive the adapter and already hold data.
  ArchetypeAdapter(const SurveyedSystem& system, Engine* engine);

  const SurveyedSystem& system() const { return system_; }

  /// Runs one capability probe.
  Result<ProbeResult> Probe(Capability capability);

 private:
  Result<uint64_t> RunKeywordSearch();
  Result<uint64_t> RunFilter();
  Result<uint64_t> RunSampling();
  Result<uint64_t> RunAggregation();
  Result<uint64_t> RunIncremental();
  Result<uint64_t> RunDiskBased();
  Result<uint64_t> RunRecommendation();
  Result<uint64_t> RunPreferences();
  Result<uint64_t> RunStatistics();

  SurveyedSystem system_;
  Engine* engine_;
};

}  // namespace lodviz::core

#endif  // LODVIZ_CORE_ARCHETYPE_H_

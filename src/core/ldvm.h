#ifndef LODVIZ_CORE_LDVM_H_
#define LODVIZ_CORE_LDVM_H_

#include "core/engine.h"

namespace lodviz::core {

/// The Linked Data Visualization Model [29]: a four-stage pipeline
///   Source data -> Analytical abstraction -> Visualization abstraction
///   -> View
/// run by lodviz's stages: the profiler, the recommender, and the
/// headless renderer.
class LdvmPipeline {
 public:
  /// A pipeline over `engine` (not owned).
  explicit LdvmPipeline(Engine* engine) : engine_(engine) {}

  /// Runs all four stages (stage 1, the source, is the engine's store).
  Result<ViewResult> Run();

  /// The spec stage 3 chose in the last Run.
  const viz::VisSpec& last_spec() const { return spec_; }

 private:
  Engine* engine_;
  viz::VisSpec spec_;
};

}  // namespace lodviz::core

#endif  // LODVIZ_CORE_LDVM_H_

#include "core/ldvm.h"

#include <vector>

namespace lodviz::core {

Result<ViewResult> LdvmPipeline::Run() {
  // Stage 2: dataset -> analytical abstraction (profile).
  LODVIZ_ASSIGN_OR_RETURN(stats::DatasetProfile profile, engine_->Profile());
  // Stage 3: profile -> visualization abstraction (the top recommendation).
  std::vector<rec::Recommendation> recs =
      engine_->recommender().Recommend(profile, 1);
  if (recs.empty()) {
    return Status::NotFound("no visualization applies to this profile");
  }
  spec_ = recs.front().spec;
  // Stage 4: spec -> view.
  return engine_->Render(spec_, /*with_svg=*/false);
}

}  // namespace lodviz::core

// LINT-EXPECT: config.no_env_knob
// A behaviour switched by an environment variable: no call site shows the
// option, and every such switch doubles the configurations the tests must
// cover. Only src/exec/parallel.cc (LODVIZ_THREADS) and bench/bench_util.h
// (LODVIZ_BENCH_JSON) may read the environment.
#include <cstdlib>
#include <cstring>

namespace lodviz::serve {

// Bad: the plan cache turned off from the environment.
bool PlanCacheDisabled() {
  const char* env = std::getenv("LODVIZ_NO_PLAN_CACHE");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

}  // namespace lodviz::serve

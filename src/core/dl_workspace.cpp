#include "core/dl_workspace.h"

namespace dlm::core {

void dl_workspace::prepare(std::size_t n) {
  u.resize(n);
  u_next.resize(n);
  lap.resize(n);
  rhs.resize(n);
  node_x.resize(n);
  mod.resize(n);
  rt.resize(n);
  growth1.resize(n);
  growth2.resize(n);
  rt_react.resize(n);
  newton_c.resize(n);
  cn_lhs.resize(n);
  cn_rhs.resize(n);
  lane_scratch.resize(4);
  rk4.prepare(n);
}

dl_workspace& thread_workspace() {
  thread_local dl_workspace workspace;
  return workspace;
}

}  // namespace dlm::core

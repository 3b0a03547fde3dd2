#include "vtime/cost_model.hpp"

namespace parapll::vtime {

double CostModel::Units(const pll::PruneStats& stats) const {
  return task_overhead + settle * static_cast<double>(stats.settled) +
         relax * static_cast<double>(stats.relaxations) +
         push * static_cast<double>(stats.heap_pushes) +
         probe * static_cast<double>(stats.probe_entries) +
         append * static_cast<double>(stats.labels_added);
}

}  // namespace parapll::vtime

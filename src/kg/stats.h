#ifndef DAAKG_KG_STATS_H_
#define DAAKG_KG_STATS_H_

#include <string>

#include "kg/alignment_task.h"

namespace daakg {

// Summary statistics of one alignment task, mirroring the columns of the
// paper's Table 2.
struct TaskStats {
  std::string name;
  size_t entities1 = 0;
  size_t entities2 = 0;
  size_t relations1 = 0;  // base relations (reverse relations excluded)
  size_t relations2 = 0;
  size_t classes1 = 0;
  size_t classes2 = 0;
  size_t triplets1 = 0;  // forward relational triplets
  size_t triplets2 = 0;
  size_t type_triplets1 = 0;
  size_t type_triplets2 = 0;
  size_t entity_matches = 0;
  size_t relation_matches = 0;
  size_t class_matches = 0;
  double avg_degree1 = 0.0;
  double avg_degree2 = 0.0;
};

TaskStats ComputeTaskStats(const AlignmentTask& task);

}  // namespace daakg

#endif  // DAAKG_KG_STATS_H_

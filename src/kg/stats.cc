#include "kg/stats.h"

namespace daakg {

TaskStats ComputeTaskStats(const AlignmentTask& task) {
  TaskStats s;
  s.name = task.name;
  s.entities1 = task.kg1.num_entities();
  s.entities2 = task.kg2.num_entities();
  s.relations1 = task.kg1.num_base_relations();
  s.relations2 = task.kg2.num_base_relations();
  s.classes1 = task.kg1.num_classes();
  s.classes2 = task.kg2.num_classes();
  s.triplets1 = task.kg1.num_triplets() / 2;  // forward only
  s.triplets2 = task.kg2.num_triplets() / 2;
  s.type_triplets1 = task.kg1.num_type_triplets();
  s.type_triplets2 = task.kg2.num_type_triplets();
  s.entity_matches = task.gold_entities.size();
  s.relation_matches = task.gold_relations.size();
  s.class_matches = task.gold_classes.size();
  if (s.entities1 > 0) {
    s.avg_degree1 =
        static_cast<double>(s.triplets1) / static_cast<double>(s.entities1);
  }
  if (s.entities2 > 0) {
    s.avg_degree2 =
        static_cast<double>(s.triplets2) / static_cast<double>(s.entities2);
  }
  return s;
}

}  // namespace daakg
